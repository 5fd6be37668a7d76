package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// chunkFrames is how many frames the traced driver moves through one layer
// before handing them to the next. Each record and each decoded packet owns
// its buffer, so a chunk can sit decoded while the reassembler walks it.
const chunkFrames = 1024

// advanceEvery mirrors the sharded front-end's idle-horizon cadence: the
// reassembler's open connections are swept once per this many frames.
const advanceEvery = 4 * chunkFrames

// tracedSource is where the traced driver pulls frames from.
type tracedSource struct {
	layer string // "telescope" or "pcapio"
	src   pcapio.ZeroCopySource
	// tap is the generator tap when frames are synthesized on demand; its
	// accumulated draw time becomes "scanner" spans under the source's.
	tap           *blueprintTap
	bytesPerFrame float64
	close         func()
}

// chunk is the driver's working set.
type chunk struct {
	recs [chunkFrames]pcapio.Packet
	pkts [chunkFrames]packet.Packet
	ok   [chunkFrames]bool
}

// tracedPass is what one stage-at-a-time pass produced.
type tracedPass struct {
	wall       time.Duration
	frames     int
	decodeErrs int
	stats      ids.ScanStats
	openMax    int
}

// tracedScanPass drives one complete scan on the calling goroutine, one layer
// at a time per chunk, with a span around each layer's share of the chunk:
// source (and generator) -> packet -> tcpasm -> ids.extract -> ids.match ->
// sink. The work is the same the product's streamed scan does at width 1.
func tracedScanPass(tr *tracer, id int32, ts *tracedSource, engine *ids.Engine, buf *chunk) (tracedPass, error) {
	var out tracedPass
	asm := tcpasm.NewAssembler(tcpasm.Config{})
	sb := ids.NewStatsBuilder()
	var maxTS time.Time
	sinceAdvance := 0
	extracted := 0 // keeps the compiler from dropping the extraction calls

	match := func(root int32, sessions []tcpasm.Session) {
		// Extraction is timed on its own as well as inside the match
		// (Engine.Match extracts again): the layer table wants both.
		sp := tr.begin("ids.extract", root, id)
		for i := range sessions {
			extracted += len(ids.ExtractBuffers(sessions[i].ClientData).Requests)
		}
		tr.end(sp, len(sessions))

		sp = tr.begin("ids.match", root, id)
		var events []ids.Event
		for i := range sessions {
			if ev, ok := ids.MatchSession(&sessions[i], engine); ok {
				events = append(events, ev)
			}
		}
		tr.end(sp, len(sessions))

		sp = tr.begin("sink", root, id)
		sb.AddSessionBatch(sessions)
		sb.AddEvents(events)
		tr.end(sp, len(events))
	}

	root := tr.begin("pass", -1, id)
	// The telescope draws blueprints ahead of the frames it hands out, so
	// each source span is charged whatever was drawn since the previous one.
	var drawnNs, drawn int64
	for eof := false; !eof; {
		sp := tr.begin(ts.layer, root, id)
		n := 0
		for n < chunkFrames {
			err := ts.src.NextInto(&buf.recs[n])
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return out, fmt.Errorf("reading frames: %w", err)
			}
			n++
		}
		tr.end(sp, n)
		if ts.tap != nil {
			ns, k := ts.tap.ns.Load(), ts.tap.drawn.Load()
			tr.add("scanner", sp, id, tr.spans[sp].Start, time.Duration(ns-drawnNs), int(k-drawn))
			drawnNs, drawn = ns, k
		}
		out.frames += n

		sp = tr.begin("packet", root, id)
		for i := 0; i < n; i++ {
			buf.ok[i] = packet.DecodeInto(&buf.pkts[i], buf.recs[i].Data) == nil
			if !buf.ok[i] {
				out.decodeErrs++
			}
		}
		tr.end(sp, n)

		sp = tr.begin("tcpasm", root, id)
		for i := 0; i < n; i++ {
			if !buf.ok[i] {
				continue
			}
			if t := buf.recs[i].Timestamp; t.After(maxTS) {
				maxTS = t
			}
			asm.Feed(buf.recs[i].Timestamp, &buf.pkts[i])
		}
		var sessions []tcpasm.Session
		if sinceAdvance += n; sinceAdvance >= advanceEvery {
			sinceAdvance = 0
			sessions = asm.Drain(maxTS)
		} else {
			sessions = asm.Sessions()
		}
		if eof {
			asm.Flush()
			sessions = append(sessions, asm.Sessions()...)
		}
		if open := asm.OpenConns(); open > out.openMax {
			out.openMax = open
		}
		tr.end(sp, n)

		match(root, sessions)
	}
	tr.end(root, out.frames)
	out.wall = tr.spans[root].dur()
	out.stats = sb.Stats()
	out.stats.Packets, out.stats.DecodeErrors = out.frames, out.decodeErrs
	_ = extracted
	return out, nil
}

// harnessLimit is the share of a serial pass the benchmark's own code may
// take before the workload is flagged: past it the profile describes the
// harness, not the system.
const harnessLimit = 0.10

// overheadLimit is the most a traced serial pass may exceed an untraced one.
const overheadLimit = 0.15

// traceScan runs traced passes for the given share of the budget, one
// observed sharded pass for the queue gauges, and turns the spans into the
// scan layers' metrics.
func traceScan(r *run, o *outcome, job *scanJob, share float64, untracedSerialMs float64) error {
	buf := new(chunk)
	kept := make(map[int32]bool)
	var walls samples
	var last tracedPass
	onePass := func(id int32) error {
		ts, err := job.trace()
		if err != nil {
			return err
		}
		defer ts.close()
		p, err := tracedScanPass(r.tr, id, ts, job.engine, buf)
		if err != nil {
			return err
		}
		o.check(p.stats.MatchedEvents == job.refEvents, "traced pass: %d events, reference has %d", p.stats.MatchedEvents, job.refEvents)
		o.check(p.decodeErrs == 0, "traced pass: %d frames failed to decode", p.decodeErrs)
		if id == 0 { // warm-up, discarded
			return nil
		}
		kept[id] = true
		walls = append(walls, float64(p.wall)/1e6)
		last = p
		if ts.bytesPerFrame > 0 {
			o.set("pcapio.bytes_per_frame", ts.bytesPerFrame, 0)
		}
		return nil
	}
	err := func() error {
		// The driver is one goroutine; give it one core, as the untraced
		// serial passes it is compared with have.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		deadline := time.Now().Add(r.share(share))
		for id := int32(0); len(walls) < r.sz.minPasses || time.Now().Before(deadline); id++ {
			if err := onePass(id); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}

	layers := r.tr.byLayer(kept)
	total := layers["pass"]
	var passWall time.Duration // all kept passes
	for _, ms := range walls {
		passWall += time.Duration(ms * 1e6)
	}
	frames, sessions := int64(0), int64(0)
	if l := layers["packet"]; l != nil {
		frames = l.units
	}
	if l := layers["ids.match"]; l != nil {
		sessions = l.units
	}
	events := int64(last.stats.MatchedEvents) * int64(len(walls))

	o.set("scanner.ns_per_blueprint", layers["scanner"].perUnit(), 0)
	if l := layers["scanner"]; l != nil {
		o.set("scanner.blueprints", float64(l.units)/float64(len(walls)), 0)
	}
	o.set("telescope.ns_per_frame", layers["telescope"].perUnit(), 0)
	if l := layers["telescope"]; l != nil {
		o.set("telescope.frames", float64(l.units)/float64(len(walls)), 0)
	}
	synth := time.Duration(0)
	for _, name := range []string{"scanner", "telescope"} {
		if l := layers[name]; l != nil {
			synth += l.self
		}
	}
	o.set("telescope.share_of_serial", float64(synth)/float64(passWall), 0)
	o.set("pcapio.ns_per_frame", layers["pcapio"].perUnit(), 0)
	o.set("packet.ns_per_frame", layers["packet"].perUnit(), 0)
	o.set("packet.allocs_per_frame", layers["packet"].allocsPer(frames), 0)
	o.set("packet.decode_errors", float64(last.decodeErrs), 0)
	o.set("tcpasm.ns_per_frame", layers["tcpasm"].perUnit(), 0)
	o.set("tcpasm.allocs_per_session", layers["tcpasm"].allocsPer(sessions), 0)
	o.set("tcpasm.sessions", float64(last.stats.Sessions), 0)
	o.set("tcpasm.open_conns_max", float64(last.openMax), 0)
	o.set("tcpasm.ambiguous_sessions", float64(last.stats.AmbiguousSessions), 0)
	o.set("ids.match_ns_per_session", layers["ids.match"].perUnit(), 0)
	o.set("ids.extract_ns_per_session", layers["ids.extract"].perUnit(), 0)
	if l := layers["ids.match"]; l != nil && events > 0 {
		o.set("ids.ns_per_event", float64(l.self)/float64(events), 0)
		o.set("ids.allocs_per_session", l.allocsPer(sessions), 0)
	}
	o.set("ids.sessions", float64(last.stats.Sessions), 0)
	o.set("ids.events", float64(last.stats.MatchedEvents), 0)
	if last.stats.Sessions > 0 {
		o.set("ids.match_ratio", float64(last.stats.MatchedEvents)/float64(last.stats.Sessions), 0)
	}

	harness := float64(total.self) / float64(passWall)
	o.set("bench.harness_share", harness, 0)
	if harness > harnessLimit {
		o.note("HARNESS-DOMINATED: %s spends %.0f%% of a serial pass in the benchmark's own code (limit %.0f%%)", o.Workload, harness*100, harnessLimit*100)
	}
	// The traced driver repeats payload extraction for the layer table; that
	// repeat is work the untraced pass does not do, so it is set aside before
	// the two are compared.
	extra := time.Duration(0)
	if l := layers["ids.extract"]; l != nil {
		extra = l.self
	}
	tracedMs := float64(passWall-extra) / 1e6 / float64(len(walls))
	overhead := tracedMs/untracedSerialMs - 1
	o.set("bench.trace_overhead_ratio", overhead, len(walls))
	if overhead > overheadLimit {
		o.note("INVALID: traced serial pass is %.0f%% slower than the untraced one (limit %.0f%%)", overhead*100, overheadLimit*100)
	}

	return observeShards(o, job)
}

// observeShards feeds one pass of the workload's frames through the product's
// sharded reassembly front-end at host-default width, only to watch the
// gauges that front-end exports (Sharded.ShardStats): how deep the queues
// between decoders and shard workers get, and how unevenly flows hash.
func observeShards(o *outcome, job *scanJob) error {
	ts, err := job.trace()
	if err != nil {
		return err
	}
	defer ts.close()
	var sessions atomic.Int64
	asm := tcpasm.NewSharded(tcpasm.Config{
		Emit: func(b []tcpasm.Session) { sessions.Add(int64(len(b))) },
	}, 1)

	var queued, open maxGauge
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for _, st := range asm.ShardStats() {
				queued.observe(int64(st.Queued))
				open.observe(int64(st.OpenConns))
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := asm.Feeder(0)
		defer f.Close()
		var rec pcapio.Packet
		for {
			it := f.Get()
			rec.Data = it.Buf
			err := ts.src.NextInto(&rec)
			it.Buf = rec.Data
			if err != nil {
				f.Recycle(it)
				if err != io.EOF {
					readErr = err
				}
				return
			}
			if packet.DecodeInto(&it.Pkt, it.Buf) != nil {
				f.Recycle(it)
				continue
			}
			it.TS = rec.Timestamp
			f.Feed(it)
		}
	}()
	wg.Wait()
	asm.Wait()
	close(stop)
	<-done
	if readErr != nil {
		return fmt.Errorf("observed sharded pass: %w", readErr)
	}

	var most, sum float64
	stats := asm.ShardStats()
	for _, st := range stats {
		sum += float64(st.Packets)
		if p := float64(st.Packets); p > most {
			most = p
		}
	}
	if sum > 0 {
		o.set("tcpasm.shard_skew", most/(sum/float64(len(stats))), 0)
	}
	o.set("tcpasm.queued_max", float64(queued.v), 0)
	if v := float64(open.v); v > o.Metrics["tcpasm.open_conns_max"].Value {
		o.set("tcpasm.open_conns_max", v, 0)
	}
	return nil
}
