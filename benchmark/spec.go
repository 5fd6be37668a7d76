package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it. That file is the
// only list of metric names: the program reads it to know what to print, so
// a name cannot be printed without being declared, or the reverse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json — the checkout root, whether the program was started there
// (benchmark/run.sh) or inside benchmark/ (go run, go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// sizes fixes how much work each workload does. Every rate, count and
// interval is a constant chosen at the seed commit on the 2-core reference
// box (see README.md, "Frozen constants"); nothing is derived at run time, so
// two commits always face the same offered load.
type sizes struct {
	// stream_study: Scale of the streamed study.
	studyScale int
	// capture_scan: the capture's composition. Noise and legacy scans match
	// no study rule, so they set the miss share.
	capScale, capNoise, capLegacy int
	// fleet_ingest and read_mix: Scale of the event corpus.
	corpusScale int
	// batchEvents is the size of every shipped or appended batch.
	batchEvents int

	// fleet_ingest phase A: batches shipped flat out per pass.
	fleetPassBatches int
	// fleet_ingest phase B: offered batches per second over all shippers
	// (about 30% of the seed's phase A rate) and the poller's interval.
	fleetRate float64
	pollEvery time.Duration
	// fleet_ingest serial phase: batches per pass, one in flight.
	fleetSerialBatches int
	// tickEvery is the timeline sealer's interval while a fleet rig runs.
	tickEvery time.Duration

	// read_mix phase A: offered requests per second over all clients (about
	// half of the seed's closed-loop rate).
	readRate float64
	// writeEvery is the interval at which read_mix's writer appends a batch,
	// and readPassTicks how many of those intervals a closed-loop pass lasts.
	writeEvery    time.Duration
	readPassTicks int
	// sealChunks is how many segments the preloaded corpus is sealed into.
	sealChunks int

	// tracedWrites and tracedReads are the call mixes of the traced back-end
	// driver for fleet_ingest and read_mix.
	tracedWrites, tracedReads backendMix

	// minPasses is the least number of timed passes a phase runs even when
	// its time share has already elapsed.
	minPasses int
	// warmPasses of each phase are run first and discarded.
	warmPasses int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// lateLimitUs is the ceiling on loadgen.late_us_p99: a generator that
	// starts operations later than this has stopped following its schedule
	// (the tightest one here has 3.3 ms between operations of a connection),
	// and the run is invalid.
	lateLimitUs float64
}

var fullSizes = sizes{
	studyScale: 8,
	capScale:   20, capNoise: 40000, capLegacy: 8000,
	corpusScale: 8,
	batchEvents: 100,

	fleetPassBatches:   1200,
	fleetRate:          300,
	pollEvery:          4 * time.Millisecond,
	fleetSerialBatches: 100,
	tickEvery:          100 * time.Millisecond,

	readRate:      300,
	writeEvery:    time.Second,
	readPassTicks: 1,
	sealChunks:    4,

	tracedWrites: backendMix{name: "write-heavy", batches: 96, commitEvery: 4, sealEvery: 48, readsPerCommit: 2},
	tracedReads:  backendMix{name: "read-heavy", batches: 16, commitEvery: 2, sealEvery: 8, readsPerCommit: 60},

	minPasses:   3,
	warmPasses:  2,
	setups:      3,
	lateLimitUs: 10000,
}

// smokeSizes exercise every code path in a few seconds; their numbers mean
// nothing.
var smokeSizes = sizes{
	studyScale: 200,
	capScale:   200, capNoise: 2000, capLegacy: 400,
	corpusScale: 200,
	batchEvents: 50,

	fleetPassBatches:   12,
	fleetRate:          100,
	pollEvery:          10 * time.Millisecond,
	fleetSerialBatches: 6,
	tickEvery:          20 * time.Millisecond,

	readRate:      400,
	writeEvery:    50 * time.Millisecond,
	readPassTicks: 2,
	sealChunks:    2,

	tracedWrites: backendMix{name: "write-heavy", batches: 8, commitEvery: 2, sealEvery: 4, readsPerCommit: 1},
	tracedReads:  backendMix{name: "read-heavy", batches: 4, commitEvery: 2, sealEvery: 2, readsPerCommit: 8},

	minPasses:   1,
	warmPasses:  1,
	setups:      1,
	lateLimitUs: 1e9,
}

// generators is how many load-generating goroutines (and connections) a
// workload may use: never more than the cores there are to run them.
func generators() int { return runtime.NumCPU() }

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the number summarises (0 when it is
	// a plain count or ratio).
	Samples int `json:"samples,omitempty"`
}

// outcome is the result of running one workload once.
type outcome struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]value `json:"metrics"`
	// Checks lists the correctness checks that failed; empty means correct.
	Checks []string `json:"failed_checks,omitempty"`
	// Notes are validity remarks (INVALID, HARNESS-DOMINATED) — about the
	// measurement, not about the system.
	Notes []string `json:"notes,omitempty"`
}

func newOutcome(workload string, seed int64, traced bool) *outcome {
	return &outcome{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]value)}
}

func (o *outcome) correct() bool { return len(o.Checks) == 0 }

// set records a metric; the unit is filled in from BENCHMARK.json on output.
func (o *outcome) set(name string, v float64, n int) {
	o.Metrics[name] = value{Value: v, Samples: n}
}

// check records a failed correctness check unless ok holds.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Checks = append(o.Checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// run carries what every workload needs.
type run struct {
	seed   int64
	budget time.Duration // time to spend measuring
	traced bool
	sz     sizes
	tmp    string  // scratch directory, removed by the caller
	tr     *tracer // nil unless traced
}

// share is a fraction of the run's measuring time.
func (r *run) share(f float64) time.Duration {
	return time.Duration(float64(r.budget) * f)
}

// pass is one timed repetition of a fixed piece of work.
type pass struct {
	// over is the time the work is rated over: the pass's wall time, except
	// in read_mix, which rates requests over the CPU time they took.
	over  time.Duration
	units float64 // work completed: events, frames, requests
}

// timedPasses repeats fn — one pass of fixed-size work that times itself, so
// that building and tearing down its fixtures stays outside the figure —
// until both the time share has elapsed and minPasses have run.
func timedPasses(share time.Duration, minPasses int, fn func() (pass, error)) ([]pass, error) {
	var out []pass
	deadline := time.Now().Add(share)
	for len(out) < minPasses || time.Now().Before(deadline) {
		p, err := fn()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// throughput is the median over passes of units per second of pass.over.
func throughput(ps []pass) (float64, int) {
	var xs samples
	for _, p := range ps {
		xs = append(xs, p.units/p.over.Seconds())
	}
	return xs.median(), len(xs)
}

// wallMs is each pass's rated time in milliseconds.
func wallMs(ps []pass) samples {
	var xs samples
	for _, p := range ps {
		xs = append(xs, float64(p.over)/1e6)
	}
	return xs
}

// medianSetup runs build n times, timing each, and returns the last build's
// product with the median time in seconds. Earlier products go to discard.
func medianSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times samples
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, times.median(), nil
}
