package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is a span's duration minus what its children cover, each covered
// instant counted once however many children overlap it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},
		{Name: "other", Start: 200, End: 230, Parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100 - (50 + 10), // a∪b covers [10,60), c covers [90,100)
		30 - 10,
		30,
		30,
		10,
		30,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", -1, 7)
	child := tr.begin("layer", root, 7)
	// The runtime publishes allocation counts a span of memory at a time, so
	// the figure is only close over many allocations.
	const objects = 50_000
	sink := make([][]byte, 0, objects)
	for i := 0; i < objects; i++ {
		sink = append(sink, make([]byte, 128))
	}
	tr.end(child, len(sink))
	tr.add("aside", child, 7, tr.spans[child].Start, time.Microsecond, 3)
	tr.end(root, 1)

	layers := tr.byLayer(map[int32]bool{7: true})
	l := layers["layer"]
	if l == nil || l.units != objects || l.allocs < objects*9/10 {
		t.Fatalf("layer totals = %+v, want %d units and about as many allocations", l, objects)
	}
	if layers["aside"].units != 3 {
		t.Errorf("added span lost its units: %+v", layers["aside"])
	}
	if sum := layers["pass"].self + l.self + layers["aside"].self; sum != tr.spans[root].dur() {
		t.Errorf("self times sum to %v, the pass took %v", sum, tr.spans[root].dur())
	}
	if got := tr.byLayer(map[int32]bool{8: true}); len(got) != 0 {
		t.Errorf("byLayer kept spans of another pass: %v", got)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", len(lines)+1, err)
		}
		lines = append(lines, s)
	}
	if len(lines) != 3 || lines[1].Name != "layer" || lines[1].Parent != root || lines[1].Pass != 7 {
		t.Errorf("trace file holds %+v", lines)
	}
}

func TestSpanCostIsSmall(t *testing.T) {
	if c := spanCost(); c <= 0 || c > 100*time.Microsecond {
		t.Errorf("one span costs %v, want well under a layer call's own time", c)
	}
}
