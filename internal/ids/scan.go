package ids

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// The capture scan spine: one decoder goroutine per capture segment feeds a
// flow-sharded assembler (see tcpasm.Sharded), or its own Assembler when
// every segment is a pcapio.FlowPartitionedSource, and completed sessions
// stream, batch by batch as reassembly emits them, to a match stage (see
// MatchStage). There is one driver, scan: ScanCaptureStreamed hands each
// matched batch to a sink, and ScanCaptureSharded collects the events and
// sorts them once into session order. Output equals the serial
// ScanCapture's — same events, same stats — for any shard, segment or
// worker count.

// ScanConfig tunes the capture scan. The zero value picks sensible defaults
// for the host.
type ScanConfig struct {
	// Shards is the reassembly shard count for time-ordered sources; zero
	// means the tcpasm default of min(8, GOMAXPROCS). Flow-partitioned
	// sources ignore it: there the width is the source count.
	Shards int
	// MatchWorkers is the match stage's worker count under both capture
	// scans; zero means GOMAXPROCS.
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

// scan is the one capture scan driver: one reading goroutine per source
// feeds reassembly, which streams completed sessions to a match stage, so
// peak memory is bounded by the in-flight window, not the capture size.
// collect sees each matched batch, never concurrently, in completion order;
// its sessions, payloads included, are dropped once collect returns unless
// it keeps them. Exact stats come from the order-independent StatsBuilder.
func scan(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, collect func(*MatchBatch)) (ScanStats, error) {
	var stats ScanStats
	if len(srcs) == 0 {
		return stats, fmt.Errorf("ids: no capture sources")
	}
	// Deliveries never overlap, so sb needs no lock of its own, and the
	// stage's bounded queue backpressures reassembly.
	stage := NewMatchStage(cfg.MatchWorkers)
	sb := NewStatsBuilder()
	deliver := func(b *MatchBatch) {
		sb.AddSessionBatch(b.Sessions)
		sb.AddEvents(b.Events)
		collect(b)
	}
	acfg := cfg.Assembler
	if cfg.Shards != 0 {
		acfg.Shards = cfg.Shards
	}
	acfg.Emit = func(batch []tcpasm.Session) {
		stage.Submit(&MatchBatch{Sessions: batch, Engine: e}, deliver)
	}

	var asm *tcpasm.Sharded // nil: all sources hold whole flows, reassembled where read
	for _, src := range srcs {
		if _, ok := src.(pcapio.FlowPartitionedSource); !ok {
			asm = tcpasm.NewSharded(acfg, len(srcs))
			break
		}
	}

	type fed struct {
		packets, decodeErrs int
		err                 error
	}
	feds := make([]fed, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(r *fed) {
			defer wg.Done()
			if asm == nil {
				r.packets, r.decodeErrs, r.err = reassembleLocal(src, acfg)
				return
			}
			f := asm.Feeder(i)
			defer f.Close()
			r.packets, _, r.err = FeedRecords(src, f.Get(), f.Feed, 0)
		}(&feds[i])
	}
	wg.Wait()

	if asm != nil {
		asm.Wait() // the final flush batches are emitted
		stats.DecodeErrors = asm.DecodeErrors()
	}
	stage.Close()
	var err error
	for i, r := range feds {
		stats.Packets += r.packets
		stats.DecodeErrors += r.decodeErrs
		if r.err != io.EOF && err == nil {
			err = fmt.Errorf("ids: segment %d: reading capture: %w", i, r.err)
		}
	}
	sb.fillMatchStats(&stats)
	return stats, err
}

// reassembleLocal reads one flow-partitioned source to EOF into its own
// Assembler. Records of different flows need not be in time order, so it
// runs no idle Advance (Feed's gap split still ends idle sessions exactly as
// the serial scan does). Sessions go to cfg.Emit every 128 decoded frames
// and at EOF.
func reassembleLocal(src pcapio.PacketSource, cfg tcpasm.Config) (packets, decodeErrs int, err error) {
	const handOffEvery = 128 // frames, as in a tcpasm.Feeder batch
	asm := tcpasm.NewAssembler(cfg)
	handOff := func() {
		if out := asm.Sessions(); len(out) > 0 {
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
	return packets, decodeErrs, err
}

// ScanCaptureSharded replays one or more capture segments through the scan
// spine and returns events and stats exactly as ScanCapture would over their
// concatenation. srcs must be time-ordered (segment N captured before
// segment N+1) — pcapio.OpenFiles order, or a one-element slice — unless
// all are pcapio.FlowPartitionedSources, whose order does not matter.
//
// It is the streamed scan with a sorted collector: each event is kept with
// its session, the sort key, and the events are ordered once by
// tcpasm.CompareSessions at the end. Unmatched sessions are released batch
// by batch; only matched ones stay, their streams by reference.
func ScanCaptureSharded(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig) ([]Event, ScanStats, error) {
	type hit struct {
		s  *tcpasm.Session // in a per-batch copy of the matched sessions
		ev *Event          // in the batch's own Events
	}
	var hits []hit
	stats, err := scan(srcs, e, cfg, func(b *MatchBatch) {
		matched := make([]tcpasm.Session, len(b.Hits))
		for k, i := range b.Hits {
			matched[k] = b.Sessions[i]
			hits = append(hits, hit{&matched[k], &b.Events[k]})
		}
	})
	if err != nil {
		return nil, stats, err
	}
	slices.SortFunc(hits, func(a, b hit) int { return tcpasm.CompareSessions(a.s, b.s) })
	events := slices.Grow([]Event(nil), len(hits)) // nil when nothing matched, as in ScanCapture
	for _, h := range hits {
		events = append(events, *h.ev)
	}
	return events, stats, nil
}

// ScanCaptureStreamed is ScanCaptureSharded without the collector: events
// go to sink batch by batch as the match stage completes them. The trade:
// they arrive in completion order, not the canonical session order, and no
// event slice is returned — exact aggregate stats still are.
//
// sink is never called concurrently (calls may come from different
// goroutines) and each call owns its slice; nil drops the events. A sink
// error stops delivery — sink is not called again (the capture is still
// drained, so the pipeline cannot deadlock) — and is returned after the
// scan's own errors.
func ScanCaptureStreamed(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, sink func([]Event) error) (ScanStats, error) {
	var sinkErr error // the first sink error
	stats, err := scan(srcs, e, cfg, func(b *MatchBatch) {
		if sink != nil && sinkErr == nil && len(b.Events) > 0 {
			sinkErr = sink(b.Events)
		}
	})
	if err == nil {
		err = sinkErr
	}
	return stats, err
}
