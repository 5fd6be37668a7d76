package ids

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// The capture scan spine: one decoder goroutine per capture segment feeds a
// flow-sharded assembler (see tcpasm.Sharded) and a pool of match workers
// matches the sessions — all of them once the capture ends under
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
	// MatchWorkers is the signature-matching pool size; zero means
	// GOMAXPROCS. ScanCaptureSharded splits the finished session list
	// across that many workers (see MatchSessionsParallel);
	// ScanCaptureStreamed runs that many long-lived workers, each matching
	// whole emitted batches.
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
	events := MatchSessionsParallel(sessions, e, &stats, cfg.MatchWorkers)
	return events, stats, nil
}

// ScanCaptureStreamed is ScanCaptureSharded with streaming emission: instead
// of accumulating every session until the capture ends, completed sessions
// flow straight from the shard workers to cfg.MatchWorkers long-lived match
// workers and on to sink, so peak memory is bounded by the in-flight window
// rather than the capture size. The trade: events reach sink in completion
// order, not the canonical (End, Start, Client, Server) order, and no event
// slice is returned — exact aggregate stats still are, via the
// order-independent StatsBuilder.
//
// sink is never called concurrently (calls may come from different
// goroutines) and each call owns its slice; nil drops the events. A sink
// error stops delivery — sink is not called again (the capture is still
// drained, so the pipeline cannot deadlock) — and is returned after the
// scan's own errors.
func ScanCaptureStreamed(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, sink func([]Event) error) (ScanStats, error) {
	workers := cfg.MatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Shard workers hand session batches to the match workers over a
	// bounded channel: matching overlaps with reassembly and decode, and
	// backpressure from a slow sink propagates all the way to generation.
	// Four batches let the shard workers run a little ahead of matching
	// while keeping the in-flight window, which bounds memory, small.
	sessCh := make(chan []tcpasm.Session, 4)
	builders := make([]*StatsBuilder, workers)
	// sinkMu is held across each sink call on purpose: it is what keeps
	// sink calls from overlapping. Nothing else takes it, so a blocking
	// sink stalls only other workers' deliveries — the same backpressure a
	// single delivering goroutine would apply.
	var (
		wg      sync.WaitGroup
		sinkMu  sync.Mutex
		sinkErr error // the first sink error, under sinkMu
	)
	for w := range builders {
		sb := NewStatsBuilder()
		builders[w] = sb
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker matches whole batches serially, so its pooled
			// match scratch stays warm and no batch forks or joins.
			for batch := range sessCh {
				events := MatchSessions(batch, e, nil)
				sb.AddSessionBatch(batch)
				sb.AddEvents(events)
				if sink == nil || len(events) == 0 {
					continue
				}
				sinkMu.Lock()
				if sinkErr == nil {
					sinkErr = sink(events)
				}
				sinkMu.Unlock()
			}
		}()
	}
	_, stats, err := scan(srcs, cfg, func(batch []tcpasm.Session) { sessCh <- batch })
	close(sessCh)
	wg.Wait()

	for _, o := range builders[1:] {
		builders[0].Merge(o)
	}
	builders[0].fillMatchStats(&stats)
	if err == nil {
		err = sinkErr
	}
	return stats, err
}
