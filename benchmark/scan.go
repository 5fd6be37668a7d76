package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/telescope"
	"repro/wayback"
)

// The two scan workloads run the same layers — generate, synthesize or read,
// decode, reassemble, match — on opposite traffic: stream_study is mostly
// exploit sessions and pays for the generator inside the timed pass,
// capture_scan is mostly background noise read back from a pcap file.

// seen is what one full scan pass reported.
type seen struct {
	stats     ids.ScanStats
	events    int         // events the sink received
	collected []ids.Event // the sink's events, canonically sorted; only when asked
	table4    string      // stream_study only
	resultsMs float64     // time to materialize and render the result tables
}

// scanJob is one scan workload after set-up.
type scanJob struct {
	// scan runs one complete pass at host-default widths, or with every
	// stage width 1 when serial (the caller pins GOMAXPROCS).
	scan func(serial, collect bool) (seen, error)
	// verify checks one pass against the reference computation.
	verify func(o *outcome, label string, s *seen)
	// units is the pass's work in the job's unit.
	units func(s *seen) float64
	// genLag polls the generator's lead over the scan; nil when the timed
	// path has no generator.
	genLag func() int64
	// trace opens the pass's frame source for the stage-at-a-time driver.
	trace  func() (*tracedSource, error)
	engine *ids.Engine
	// refEvents is the event count of the reference computation.
	refEvents int
	cleanup   func()
}

// blueprintTap sits between the workload generator and the telescope. It
// times every draw (the telescope pulls blueprints on its own goroutine, so a
// span around the pull cannot be opened from the driver) and counts the ground
// truth: blueprints that the study's filtered ruleset must attribute.
type blueprintTap struct {
	src   *scanner.Stream
	ns    atomic.Int64
	drawn atomic.Int64
	truth atomic.Int64
}

func (t *blueprintTap) Next() (scanner.Blueprint, bool) {
	t0 := time.Now()
	bp, ok := t.src.Next()
	t.ns.Add(int64(time.Since(t0)))
	if ok {
		t.drawn.Add(1)
		if bp.SID != 0 && !bp.Legacy {
			t.truth.Add(1)
		}
	}
	return bp, ok
}

// countingSink returns an event sink that counts, and keeps when collect.
func countingSink(s *seen, collect bool) func([]ids.Event) error {
	return func(evs []ids.Event) error {
		s.events += len(evs)
		if collect {
			s.collected = append(s.collected, evs...)
		}
		return nil
	}
}

func newStreamStudy(r *run) (*scanJob, error) {
	base := wayback.Config{Seed: r.seed, Scale: r.sz.studyScale, Streaming: true}
	study, err := wayback.NewStudy(base)
	if err != nil {
		return nil, err
	}
	narrow := base
	narrow.StreamSegments, narrow.ReasmShards, narrow.MatchWorkers = 1, 1, 1
	serialStudy, err := wayback.NewStudy(narrow)
	if err != nil {
		return nil, err
	}
	// The reference is the materializing fast path: no frames, no
	// reassembly, same generator and engine.
	refStudy, err := wayback.NewStudy(wayback.Config{Seed: r.seed, Scale: r.sz.studyScale})
	if err != nil {
		return nil, err
	}
	ref, err := refStudy.Run()
	if err != nil {
		return nil, fmt.Errorf("reference study: %w", err)
	}
	refSorted := append([]ids.Event(nil), ref.Events...)
	eventstore.SortEvents(refSorted)
	refTable := ref.Table4().String()

	job := &scanJob{engine: study.Engine(), refEvents: len(ref.Events), cleanup: func() {}}
	job.scan = func(serial, collect bool) (seen, error) {
		st := study
		if serial {
			st = serialStudy
		}
		var s seen
		res, err := st.RunStream(countingSink(&s, collect))
		if err != nil {
			return s, err
		}
		t0 := time.Now()
		s.table4 = res.Table4().String()
		s.resultsMs = float64(time.Since(t0)) / 1e6
		s.stats = res.Stats
		if collect {
			eventstore.SortEvents(s.collected)
		}
		return s, nil
	}
	job.verify = func(o *outcome, label string, s *seen) {
		o.check(s.events == len(ref.Events), "%s: sink saw %d events, reference has %d", label, s.events, len(ref.Events))
		o.check(s.stats.MatchedEvents == s.events, "%s: stats count %d events, sink saw %d", label, s.stats.MatchedEvents, s.events)
		o.check(s.stats.DistinctCVEs == ref.Stats.DistinctCVEs, "%s: %d distinct CVEs, reference has %d", label, s.stats.DistinctCVEs, ref.Stats.DistinctCVEs)
		o.check(s.stats.DecodeErrors == 0, "%s: %d frames failed to decode", label, s.stats.DecodeErrors)
		o.check(s.table4 == refTable, "%s: Table 4 differs from the reference", label)
		if s.collected != nil {
			o.check(reflect.DeepEqual(s.collected, refSorted), "%s: streamed events differ from the reference events", label)
		}
	}
	job.units = func(s *seen) float64 { return float64(s.events) }
	job.genLag = func() int64 {
		m, _ := study.StreamMetrics()
		return int64(m.Lag)
	}
	job.trace = func() (*tracedSource, error) {
		gen, err := scanner.NewStream(scanner.Config{Seed: r.seed, Scale: r.sz.studyScale})
		if err != nil {
			return nil, err
		}
		tap := &blueprintTap{src: gen}
		stream := telescope.NewSim(telescope.SimConfig{Seed: r.seed}).Stream(tap, telescope.StreamConfig{Segments: 1})
		return &tracedSource{layer: "telescope", src: stream.Segments()[0], tap: tap, close: stream.Close}, nil
	}
	return job, nil
}

// countingWriter counts the frames the telescope writes to the capture.
type countingWriter struct {
	w      *pcapio.Writer
	frames int
	bytes  int64
}

func (c *countingWriter) WritePacket(ts time.Time, data []byte) error {
	c.frames++
	c.bytes += int64(len(data))
	return c.w.WritePacket(ts, data)
}

func (c *countingWriter) Flush() error { return c.w.Flush() }

// captureBuffer is the read and write buffer in front of the capture file.
const captureBuffer = 1 << 20

func newCaptureScan(r *run) (*scanJob, error) {
	study, err := wayback.NewStudy(wayback.Config{Seed: r.seed, Scale: r.sz.capScale})
	if err != nil {
		return nil, err
	}
	gen, err := scanner.NewStream(scanner.Config{
		Seed: r.seed, Scale: r.sz.capScale, Noise: r.sz.capNoise, LegacyScans: r.sz.capLegacy,
	})
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(r.tmp, "capture-*.pcap")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	bw := bufio.NewWriterSize(f, captureBuffer)
	pw, err := pcapio.NewWriter(bw, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		f.Close()
		return nil, err
	}
	tap := &blueprintTap{src: gen}
	cw := &countingWriter{w: pw}
	err = telescope.NewSim(telescope.SimConfig{Seed: r.seed}).StreamPcap(tap, cw)
	if err == nil {
		err = cw.Flush()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("writing capture: %w", err)
	}
	truth, frames := int(tap.truth.Load()), cw.frames

	open := func() (*os.File, *pcapio.Reader, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		rd, err := pcapio.NewReader(bufio.NewReaderSize(f, captureBuffer))
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return f, rd, nil
	}

	job := &scanJob{engine: study.Engine(), refEvents: truth, cleanup: func() { os.Remove(path) }}
	job.scan = func(serial, collect bool) (seen, error) {
		var s seen
		f, rd, err := open()
		if err != nil {
			return s, err
		}
		defer f.Close()
		cfg := ids.ScanConfig{}
		if serial {
			cfg.Shards, cfg.MatchWorkers = 1, 1
		}
		s.stats, err = ids.ScanCaptureStreamed([]pcapio.PacketSource{rd}, study.Engine(), cfg, countingSink(&s, collect))
		return s, err
	}
	job.verify = func(o *outcome, label string, s *seen) {
		o.check(s.stats.Packets == frames, "%s: scanned %d frames, capture holds %d", label, s.stats.Packets, frames)
		o.check(s.stats.DecodeErrors == 0, "%s: %d frames failed to decode", label, s.stats.DecodeErrors)
		o.check(s.events == truth, "%s: %d events, ground truth is %d", label, s.events, truth)
		o.check(s.stats.MatchedEvents == s.events, "%s: stats count %d events, sink saw %d", label, s.stats.MatchedEvents, s.events)
		o.check(s.stats.Sessions == int(tap.drawn.Load()), "%s: %d sessions, capture holds %d", label, s.stats.Sessions, tap.drawn.Load())
	}
	job.units = func(s *seen) float64 { return float64(s.stats.Packets) }
	job.trace = func() (*tracedSource, error) {
		f, rd, err := open()
		if err != nil {
			return nil, err
		}
		return &tracedSource{layer: "pcapio", src: rd, close: func() { f.Close() }, bytesPerFrame: float64(cw.bytes) / float64(frames)}, nil
	}
	return job, nil
}

// scanShares splits the measuring time of a scan workload. An untraced run
// spends it all on host-default passes; a traced run also needs the serial
// baseline and leaves room for the traced driver.
type scanShares struct{ wide, serial, traced float64 }

func runScan(r *run, name string, build func(*run) (*scanJob, error)) (*outcome, error) {
	o := newOutcome(name, r.seed, r.traced)
	job, setupS, err := medianSetup(r.sz.setups, func() (*scanJob, error) { return build(r) }, func(j *scanJob) { j.cleanup() })
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	defer job.cleanup()

	shares := scanShares{wide: 1}
	if r.traced {
		shares = scanShares{wide: 0.25, serial: 0.25, traced: 0.5}
	}

	// Warm-up, discarded: the first pass keeps its events for the full
	// comparison against the reference.
	for i := 0; i < r.sz.warmPasses; i++ {
		s, err := job.scan(false, i == 0)
		if err != nil {
			return nil, err
		}
		job.verify(o, "warm-up", &s)
	}

	var frames, decodeErrs int64
	var results samples
	timed := func(serial bool, label string) func() (pass, error) {
		return func() (pass, error) {
			t0 := time.Now()
			s, err := job.scan(serial, false)
			wall := time.Since(t0)
			if err != nil {
				return pass{}, err
			}
			job.verify(o, label, &s)
			frames += int64(s.stats.Packets)
			decodeErrs += int64(s.stats.DecodeErrors)
			results = append(results, s.resultsMs)
			return pass{over: wall, units: job.units(&s)}, nil
		}
	}

	smp := startSampler()
	defer smp.finish()
	var lag maxGauge
	if job.genLag != nil {
		smp.watch(func() { lag.observe(job.genLag()) })
	}
	before := readUsage()
	wide, err := timedPasses(r.share(shares.wide), r.sz.minPasses, timed(false, "host-default pass"))
	spent := readUsage().since(before)
	heap := smp.finish()
	if err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = frames, decodeErrs
	if !r.traced {
		setEndToEnd(o, r, setupS, wide, wallMs(wide), heap)
		return o, nil
	}

	procs := runtime.GOMAXPROCS(1)
	_, err = job.scan(true, false) // serial warm-up
	var narrow []pass
	if err == nil {
		narrow, err = timedPasses(r.share(shares.serial), r.sz.minPasses, timed(true, "serial pass"))
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = frames, decodeErrs

	setPipeline(o, spent, wide, narrow, procs, heap)
	o.set("pipeline.results_ms", results.median(), len(results))
	o.set("telescope.gen_lag_max", float64(lag.v), 0)
	if err := traceScan(r, o, job, shares.traced, wallMs(narrow).median()); err != nil {
		return nil, err
	}
	return o, nil
}

// setEndToEnd records the metrics an untraced run reports. latencyMs is the
// workload's latency sample: pass wall times, freshness, or read latencies.
func setEndToEnd(o *outcome, r *run, setupS float64, passes []pass, latencyMs, heapMB samples) {
	rate, n := throughput(passes)
	o.set("setup_s", setupS, r.sz.setups)
	o.set("throughput_per_s", rate, n)
	o.set("latency_p50_ms", latencyMs.median(), len(latencyMs))
	o.set("heap_p90_mb", heapMB.quantile(0.90), len(heapMB))
}

// setPipeline reports what the workload's whole untraced path cost per unit
// of work over the host-default passes, and how those compare with the
// single-core passes.
func setPipeline(o *outcome, c cost, wide, narrow []pass, procs int, heapMB samples) {
	var work float64
	for _, p := range wide {
		work += p.units
	}
	if work > 0 {
		o.set("pipeline.allocs_per_event", c.allocObjs/work, 0)
		o.set("pipeline.alloc_bytes_per_event", c.allocBytes/work, 0)
		o.set("pipeline.cpu_s_per_mevent", c.cpu.Seconds()/work*1e6, 0)
	}
	if c.wall > 0 {
		o.set("pipeline.cpu_busy_ratio", c.cpu.Seconds()/(c.wall.Seconds()*float64(procs)), 0)
	}
	o.set("pipeline.gc_cpu_fraction", c.gcFraction, 0)
	wideRate, _ := throughput(wide)
	narrowRate, n := throughput(narrow)
	o.set("pipeline.serial_per_s", narrowRate, n)
	if narrowRate > 0 {
		o.set("pipeline.speedup_vs_serial", wideRate/narrowRate, 0)
	}
	o.set("pipeline.heap_max_mb", heapMB.max(), len(heapMB))
}

func runStreamStudy(r *run) (*outcome, error) {
	return runScan(r, "stream_study", newStreamStudy)
}

func runCaptureScan(r *run) (*outcome, error) {
	return runScan(r, "capture_scan", newCaptureScan)
}

// tempDir makes a scratch directory for one run under the checkout's build
// directory: the benchmark writes nowhere else.
func tempDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
