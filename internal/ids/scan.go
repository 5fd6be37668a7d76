package ids

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// The capture scan spine: one decoder goroutine per capture segment feeds a
// flow-sharded assembler (see tcpasm.Sharded), or its own Assembler when
// every segment is a pcapio.FlowPartitionedSource, and a match stage (see
// MatchStage) matches the sessions — all of them once the capture ends under
// ScanCaptureSharded, batch by batch as reassembly emits them under
// ScanCaptureStreamed. Output equals the serial ScanCapture's — same events,
// same stats — for any shard, segment or worker count.

// ScanConfig tunes the capture scan. The zero value picks sensible defaults
// for the host.
type ScanConfig struct {
	// Shards is the reassembly shard count for time-ordered sources; zero
	// means the tcpasm default of min(8, GOMAXPROCS). Flow-partitioned
	// sources ignore it: there the width is the source count.
	Shards int
	// MatchWorkers is the match stage's worker count under both scan
	// drivers; zero means GOMAXPROCS.
	MatchWorkers int
	// Assembler overrides reassembly limits (idle timeout, stream caps,
	// overlap policy). The scan sets its Emit field, and its Shards field
	// when ScanConfig.Shards is.
	Assembler tcpasm.Config
}

// FeedRecords is the capture record loop: it reads up to max records from
// src (max <= 0: all of them) into the one scratch item it — the raw frame
// in Buf, its capture time in TS — and passes each to feed, which is done
// with it on return. It decodes nothing: a tcpasm.Feeder routes raw frames
// and its shard decodes them, and other feeds decode for themselves.
// Zero-copy sources lend the item's buffer to NextInto; others cost one
// more copy per record. It returns the records read and the last one's
// capture timestamp; err is io.EOF once src is exhausted and nil when max
// stopped the loop first.
func FeedRecords(src pcapio.PacketSource, it *tcpasm.FeedItem, feed func(*tcpasm.FeedItem), max int) (packets int, last time.Time, err error) {
	zc, zeroCopy := src.(pcapio.ZeroCopySource)
	var rec pcapio.Packet
	for max <= 0 || packets < max {
		if zeroCopy {
			// Lend the item's buffer to the reader; take back whatever
			// (possibly grown) buffer it filled.
			rec.Data = it.Buf
			err = zc.NextInto(&rec)
			it.Buf = rec.Data
		} else if rec, err = src.Next(); err == nil {
			it.Buf = append(it.Buf[:0], rec.Data...)
		}
		if err != nil {
			return packets, last, err
		}
		packets++
		last = rec.Timestamp
		it.TS = last
		feed(it)
	}
	return packets, last, nil
}

// scan drives srcs through decode and reassembly, one reading goroutine per
// source. With emit set, session batches stream to it (concurrently, all
// delivered before scan returns) and none are returned; without, every
// session is returned in canonical order. Only the capture-side stats are
// filled in.
func scan(srcs []pcapio.PacketSource, cfg ScanConfig, emit func([]tcpasm.Session)) ([]tcpasm.Session, ScanStats, error) {
	var stats ScanStats
	if len(srcs) == 0 {
		return nil, stats, fmt.Errorf("ids: no capture sources")
	}
	acfg := cfg.Assembler
	if cfg.Shards != 0 {
		acfg.Shards = cfg.Shards
	}
	acfg.Emit = emit

	var asm *tcpasm.Sharded // nil: all sources hold whole flows, reassembled where read
	for _, src := range srcs {
		if _, ok := src.(pcapio.FlowPartitionedSource); !ok {
			asm = tcpasm.NewSharded(acfg, len(srcs))
			break
		}
	}

	type fed struct {
		packets, decodeErrs int
		sessions            []tcpasm.Session // a local Assembler's, without emit
		err                 error
	}
	feds := make([]fed, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(r *fed) {
			defer wg.Done()
			if asm == nil {
				r.sessions, r.packets, r.decodeErrs, r.err = reassembleLocal(src, acfg)
				return
			}
			f := asm.Feeder(i)
			defer f.Close()
			r.packets, _, r.err = FeedRecords(src, f.Get(), f.Feed, 0)
		}(&feds[i])
	}
	wg.Wait()

	var sessions []tcpasm.Session
	if asm != nil {
		sessions = asm.Wait() // under emit: nil, after the final flush batches
		stats.DecodeErrors = asm.DecodeErrors()
	}
	var err error
	for i, r := range feds {
		stats.Packets += r.packets
		stats.DecodeErrors += r.decodeErrs
		sessions = append(sessions, r.sessions...)
		if r.err != io.EOF && err == nil {
			err = fmt.Errorf("ids: segment %d: reading capture: %w", i, r.err)
		}
	}
	if asm == nil {
		tcpasm.SortSessions(sessions)
	}
	return sessions, stats, err
}

// reassembleLocal reads one flow-partitioned source to EOF into its own
// Assembler. Records of different flows need not be in time order, so it
// runs no idle Advance (Feed's gap split still ends idle sessions exactly as
// the serial scan does). Sessions go to cfg.Emit every 128 decoded frames
// and at EOF, or are returned without it.
func reassembleLocal(src pcapio.PacketSource, cfg tcpasm.Config) (sessions []tcpasm.Session, packets, decodeErrs int, err error) {
	const handOffEvery = 128 // frames, as in a tcpasm.Feeder batch
	asm := tcpasm.NewAssembler(cfg)
	handOff := func() {
		if out := asm.Sessions(); cfg.Emit == nil {
			sessions = append(sessions, out...)
		} else if len(out) > 0 {
			cfg.Emit(out)
		}
	}
	frames := 0
	packets, _, err = FeedRecords(src, new(tcpasm.FeedItem), func(it *tcpasm.FeedItem) {
		if packet.DecodeInto(&it.Pkt, it.Buf) != nil {
			decodeErrs++
			return
		}
		asm.Feed(it.TS, &it.Pkt)
		if frames++; frames%handOffEvery == 0 {
			handOff()
		}
	}, 0)
	asm.Flush()
	handOff()
	return sessions, packets, decodeErrs, err
}

// ScanCaptureSharded replays one or more capture segments through the scan
// spine and returns events and stats exactly as ScanCapture would over their
// concatenation. srcs must be time-ordered (segment N captured before
// segment N+1) — pcapio.OpenFiles order, or a one-element slice — unless
// all are pcapio.FlowPartitionedSources, whose order does not matter.
func ScanCaptureSharded(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig) ([]Event, ScanStats, error) {
	sessions, stats, err := scan(srcs, cfg, nil)
	if err != nil {
		return nil, stats, err
	}
	return MatchSessionsParallel(sessions, e, &stats, cfg.MatchWorkers), stats, nil
}

// ScanCaptureStreamed is ScanCaptureSharded with streaming emission: instead
// of accumulating every session until the capture ends, completed sessions
// flow straight from reassembly to the match stage and on to sink,
// so peak memory is bounded by the in-flight window rather than the capture
// size. The trade: events reach sink in completion order, not the canonical
// (End, Start, Client, Server) order, and no event slice is returned — exact
// aggregate stats still are, via the order-independent StatsBuilder.
//
// sink is never called concurrently (calls may come from different
// goroutines) and each call owns its slice; nil drops the events. A sink
// error stops delivery — sink is not called again (the capture is still
// drained, so the pipeline cannot deadlock) — and is returned after the
// scan's own errors.
func ScanCaptureStreamed(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, sink func([]Event) error) (ScanStats, error) {
	// Deliveries never overlap, so sb and sinkErr need no lock of their own,
	// and the stage's bounded queue backpressures reassembly.
	stage := NewMatchStage(cfg.MatchWorkers)
	sb := NewStatsBuilder()
	var sinkErr error // the first sink error
	deliver := func(b *MatchBatch) {
		sb.AddSessionBatch(b.Sessions)
		sb.AddEvents(b.Events)
		if sink != nil && sinkErr == nil && len(b.Events) > 0 {
			sinkErr = sink(b.Events)
		}
	}
	_, stats, err := scan(srcs, cfg, func(batch []tcpasm.Session) {
		stage.Submit(&MatchBatch{Sessions: batch, Engine: e}, deliver)
	})
	stage.Close()

	sb.fillMatchStats(&stats)
	if err == nil {
		err = sinkErr
	}
	return stats, err
}
