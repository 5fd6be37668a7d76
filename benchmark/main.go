// Command benchmark is the repository's benchmark: four fixed workloads that
// drive the system through its public functions, check every output against a
// reference computation, and print each metric BENCHMARK.json declares.
//
//	bash benchmark/run.sh -seed 1                      # all four, untraced then traced
//	bash benchmark/run.sh -workload read_mix -trace 0  # one workload, end-to-end metrics
//	bash benchmark/run.sh -trace 0 -repeat 5           # steadiness self-check
//
// With one workload and an explicit -trace the last line of standard output
// is a JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics for -trace 0, the per-layer metrics for -trace 1. README.md explains
// the workloads, the metrics, and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload BENCHMARK.json names to its implementation.
var workloads = map[string]func(*run) (*outcome, error){
	"stream_study": runStreamStudy,
	"capture_scan": runCaptureScan,
	"fleet_ingest": runFleetIngest,
	"read_mix":     runReadMix,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	out      string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", 0, "seconds each run spends measuring (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&opt.trace, "trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
	fs.IntVar(&opt.repeat, "repeat", 1, "run the set this many times, seeds seed..seed+N-1, and print each end-to-end metric's spread against its bound")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny sizes: exercise every path in seconds; the numbers mean nothing")
	fs.StringVar(&opt.out, "out", "", "directory for result.json and trace-<workload>.jsonl (default: benchmark/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := execute(opt, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect reports that some workload's outputs failed their checks.
var errIncorrect = fmt.Errorf("a correctness check failed")

func execute(opt options, stdout io.Writer) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.out == "" {
		opt.out = filepath.Join(root, "benchmark", "out")
	}
	if opt.repeat < 1 || opt.trace < -1 || opt.trace > 1 {
		return fmt.Errorf("-repeat wants at least 1 and -trace one of 0, 1")
	}
	var names []string
	for _, w := range spec.Workloads {
		if opt.workload == "" || opt.workload == w.Name {
			if workloads[w.Name] == nil {
				return fmt.Errorf("BENCHMARK.json names workload %q, which this program does not implement", w.Name)
			}
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	sz := fullSizes
	if opt.smoke {
		sz = smokeSizes
	}
	var modes []bool // traced?
	if opt.trace != 1 {
		modes = append(modes, false)
	}
	if opt.trace != 0 {
		modes = append(modes, true)
	}

	env := describeEnv(root)
	fmt.Fprint(stdout, env.String())

	var all []*outcome
	incorrect := false
	for rep := 0; rep < opt.repeat; rep++ {
		for _, name := range names {
			for _, traced := range modes {
				r := &run{
					seed:   opt.seed + int64(rep),
					budget: time.Duration(opt.seconds * float64(time.Second)),
					traced: traced,
					sz:     sz,
				}
				o, err := runOne(root, name, r, opt.out)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fill(o, spec)
				printOutcome(stdout, o, spec)
				all = append(all, o)
				incorrect = incorrect || !o.correct()
			}
		}
	}
	if opt.repeat > 1 {
		printSpreads(stdout, all, spec)
	}
	if err := writeJSON(filepath.Join(opt.out, "result.json"), struct {
		Env      envInfo    `json:"environment"`
		Outcomes []*outcome `json:"outcomes"`
	}{env, all}); err != nil {
		return err
	}
	// The driver's contract: one workload, one mode, result as the last line.
	if len(all) == 1 {
		o := all[0]
		type reading struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := make(map[string]reading, len(o.Metrics))
		for name, v := range o.Metrics {
			metrics[name] = reading{v.Value, v.Unit}
		}
		line, err := json.Marshal(struct {
			Correct   bool               `json:"correct"`
			Attempted int64              `json:"attempted"`
			Failed    int64              `json:"failed"`
			Metrics   map[string]reading `json:"metrics"`
		}{o.correct(), o.Attempted, o.Failed, metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runOne runs one workload once in a scratch directory of its own.
func runOne(root, name string, r *run, outDir string) (*outcome, error) {
	tmp, err := tempDir(root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r.tmp = tmp
	if r.traced {
		r.tr = newTracer()
	}
	o, err := workloads[name](r)
	if err != nil {
		return nil, err
	}
	if o.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if r.traced {
		if err := r.tr.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fill gives every metric its declared unit and adds, as zero, each per-layer
// metric the workload does not exercise: a layer that does nothing in a
// workload is a prediction ("no change here") worth printing.
func fill(o *outcome, spec *benchSpec) {
	declared := spec.EndToEnd
	if o.Traced {
		declared = spec.PerLayer
	}
	out := make(map[string]value, len(declared))
	for _, m := range declared {
		v, ok := o.Metrics[m.Name]
		if !ok && !o.Traced {
			o.check(false, "end-to-end metric %s was not measured", m.Name)
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	for name := range o.Metrics {
		if _, ok := out[name]; !ok {
			o.check(false, "metric %s is not declared in BENCHMARK.json", name)
		}
	}
	o.Metrics = out
}

func printOutcome(w io.Writer, o *outcome, spec *benchSpec) {
	mode, declared := "untraced, end-to-end", spec.EndToEnd
	if o.Traced {
		mode, declared = "traced, per-layer", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s)\n", o.Workload, o.Seed, mode)
	fmt.Fprintf(w, "   ops attempted %d, failed %d\n", o.Attempted, o.Failed)
	for _, m := range declared {
		v := o.Metrics[m.Name]
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-8s%s\n", m.Name, v.Value, v.Unit, n)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "   !! %s\n", n)
	}
	for _, c := range o.Checks {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", c)
	}
	if o.correct() {
		fmt.Fprintf(w, "   outputs correct\n")
	}
}

// printSpreads is the steadiness self-check: for each end-to-end metric and
// workload, the interquartile range of the repeated runs as a share of their
// median, against the bound BENCHMARK.json fixes for the metric.
func printSpreads(w io.Writer, all []*outcome, spec *benchSpec) {
	type cell struct{ workload, metric string }
	byCell := make(map[cell][]float64)
	for _, o := range all {
		if o.Traced {
			continue
		}
		for name, v := range o.Metrics {
			c := cell{o.Workload, name}
			byCell[c] = append(byCell[c], v.Value)
		}
	}
	if len(byCell) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== spread over repeated runs (IQR / median) against each metric's bound\n")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vals := byCell[cell{wl.Name, m.Name}]
			if len(vals) == 0 {
				continue
			}
			sp := spread(vals)
			verdict := "inside"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated on spread"
			case sp > m.Bound:
				verdict = "OUTSIDE"
			case sp > m.Bound/3:
				verdict = "inside, above a third"
			}
			fmt.Fprintf(w, "   %-14s %-26s median %14.4f  spread %6.2f%%  bound %5.1f%%  %s  (n=%d)\n",
				wl.Name, m.Name, samples(vals).median(), sp*100, m.Bound*100, verdict, len(vals))
		}
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
