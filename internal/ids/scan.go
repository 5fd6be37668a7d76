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
// flow-sharded assembler (see tcpasm.Sharded) and a match stage (see
// MatchStage) matches the sessions — all of them once the capture ends under
// ScanCaptureSharded, batch by batch as the shard workers emit them under
// ScanCaptureStreamed. The two are the same driver with and without
// streaming emission; output equals the serial ScanCapture's — same events,
// same stats — for any shard or worker count.

// ScanConfig tunes the capture scan. The zero value picks sensible defaults
// for the host.
type ScanConfig struct {
	// Shards is the reassembly shard count; zero means the tcpasm default
	// of min(8, GOMAXPROCS).
	Shards int
	// MatchWorkers is the match stage's worker count under both scan
	// drivers; zero means GOMAXPROCS.
	MatchWorkers int
	// Assembler overrides reassembly limits (idle timeout, stream caps) and
	// declares flow-partitioned sources (FlowDisjointFeeders). The scan
	// sets its Emit field, and its Shards field when ScanConfig.Shards is.
	Assembler tcpasm.Config
}

// FeedRecords is the capture record loop: it reads up to max records from
// src (max <= 0: all of them) into the feeder's one scratch item, decodes
// each to count decode errors and find its flow, and feeds it, which packs
// the frame into its shard's pending batch. Zero-copy sources lend the
// item's buffer to NextInto; others cost one more copy per record. It
// returns the records read, how many of them did not decode, and the last
// one's capture timestamp; err is io.EOF once src is exhausted and nil when
// max stopped the loop first.
func FeedRecords(src pcapio.PacketSource, f *tcpasm.Feeder, max int) (packets, decodeErrs int, last time.Time, err error) {
	zc, zeroCopy := src.(pcapio.ZeroCopySource)
	var rec pcapio.Packet
	it := f.Get()
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
			return packets, decodeErrs, last, err
		}
		packets++
		last = rec.Timestamp
		if packet.DecodeInto(&it.Pkt, it.Buf) != nil {
			decodeErrs++
			continue
		}
		it.TS = rec.Timestamp
		f.Feed(it)
	}
	return packets, decodeErrs, last, nil
}

// scan drives srcs through decode and flow-sharded reassembly, one decode
// goroutine per source. With emit set, session batches stream to it from the
// shard workers (all delivered before scan returns) and none are returned;
// without, every session is returned in canonical order. Only the
// capture-side stats are filled in.
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
	asm := tcpasm.NewSharded(acfg, len(srcs))

	type fed struct {
		packets, decodeErrs int
		err                 error
	}
	feds := make([]fed, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(r *fed, src pcapio.PacketSource, f *tcpasm.Feeder) {
			defer wg.Done()
			defer f.Close()
			r.packets, r.decodeErrs, _, r.err = FeedRecords(src, f, 0)
		}(&feds[i], src, asm.Feeder(i))
	}
	wg.Wait()
	sessions := asm.Wait() // under emit: nil, after the final flush batches

	var err error
	for i, r := range feds {
		stats.Packets += r.packets
		stats.DecodeErrors += r.decodeErrs
		if r.err != io.EOF && err == nil {
			err = fmt.Errorf("ids: segment %d: reading capture: %w", i, r.err)
		}
	}
	return sessions, stats, err
}

// ScanCaptureSharded replays one or more capture segments through the scan
// spine and returns events and stats exactly as ScanCapture would over their
// concatenation. srcs must be time-ordered (segment N captured before
// segment N+1) — pcapio.OpenFiles order, or a one-element slice — unless
// cfg.Assembler.FlowDisjointFeeders declares them flow-partitioned.
func ScanCaptureSharded(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig) ([]Event, ScanStats, error) {
	sessions, stats, err := scan(srcs, cfg, nil)
	if err != nil {
		return nil, stats, err
	}
	return MatchSessionsParallel(sessions, e, &stats, cfg.MatchWorkers), stats, nil
}

// ScanCaptureStreamed is ScanCaptureSharded with streaming emission: instead
// of accumulating every session until the capture ends, completed sessions
// flow straight from the shard workers to the match stage and on to sink,
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
	// and the stage's bounded queue backpressures the shard workers.
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
