package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json must stay inside the limits its consumer enforces.
func TestBenchmarkJSONContract(t *testing.T) {
	spec := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

// Every workload, untraced and traced, at sizes small enough for the test
// suite: outputs check out, every declared metric is reported, and the trace
// of each workload reaches the disk.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := mustSpec(t)
	out := t.TempDir()
	var buf bytes.Buffer
	err := execute(options{seed: 2, seconds: 0.2, trace: -1, repeat: 1, smoke: true, out: out}, &buf)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Outcomes []outcome `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Outcomes) != 2*len(spec.Workloads) {
		t.Fatalf("%d outcomes, want %d", len(result.Outcomes), 2*len(spec.Workloads))
	}
	for _, o := range result.Outcomes {
		declared := spec.EndToEnd
		if o.Traced {
			declared = spec.PerLayer
		}
		if !o.correct() || o.Attempted < 1 {
			t.Errorf("%s traced=%v: checks %v, attempted %d", o.Workload, o.Traced, o.Checks, o.Attempted)
		}
		if len(o.Metrics) != len(declared) {
			t.Errorf("%s traced=%v: %d metrics, %d declared", o.Workload, o.Traced, len(o.Metrics), len(declared))
		}
		for _, m := range declared {
			v, ok := o.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", o.Workload, m.Name, v.Unit, m.Unit)
			}
			if !o.Traced && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", o.Workload, m.Name, v.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		f, err := os.Open(filepath.Join(out, "trace-"+w.Name+".jsonl"))
		if err != nil {
			t.Error(err)
			continue
		}
		names := make(map[string]int)
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Errorf("%s trace: %v", w.Name, err)
				break
			}
			if s.End < s.Start {
				t.Errorf("%s trace: span %s ends before it starts", w.Name, s.Name)
			}
			names[s.Name]++
		}
		f.Close()
		if names["pass"] == 0 || len(names) < 5 {
			t.Errorf("%s trace holds spans %v, want a pass root and its layers", w.Name, names)
		}
	}
	if !strings.Contains(buf.String(), "bench.trace_overhead_ratio") {
		t.Error("the printed report does not name the tracing overhead")
	}
}

// One workload with an explicit -trace ends its output with the result line
// the driver parses.
func TestSingleRunPrintsResultLine(t *testing.T) {
	spec := mustSpec(t)
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "capture_scan", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-smoke", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly four", line)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Errorf("%d metrics on the result line, want the %d end-to-end ones", len(metrics), len(spec.EndToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s is %v, want exactly value and unit", name, m)
		}
	}
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s", line["correct"])
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope", "-smoke"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
