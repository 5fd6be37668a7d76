package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// A span is one call, or one chunk of calls, into a single layer, recorded
// from the benchmark's side of the boundary. Spans of one serial pass share a
// pass id; Parent is the index of the enclosing span, -1 for a pass root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Pass   int32  `json:"pass"`
	// Units is how many items the span handled (frames, sessions, events,
	// requests) and Allocs how many heap objects were allocated while it was
	// open — counts taken at the same boundary as the time. The runtime
	// publishes allocations a memory span at a time, so Allocs is exact only
	// summed over many spans, which is how it is used.
	Units  int64 `json:"units"`
	Allocs int64 `json:"allocs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; nothing is written until the run ends. It is
// used from one goroutine at a time — the traced drivers are serial by design.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.allocs[0].Name = "/gc/heap/allocs:objects"
	return t
}

func (t *tracer) heapAllocs() int64 {
	metrics.Read(t.allocs[:])
	return int64(t.allocs[0].Value.Uint64())
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, pass int32) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: pass, Allocs: -t.heapAllocs()})
	id := int32(len(t.spans) - 1)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, recording how many units it handled.
func (t *tracer) end(id int32, units int) {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Allocs += t.heapAllocs()
	s.Units = int64(units)
}

// add records a span whose interval was measured elsewhere (time accumulated
// on another goroutine on the driver's behalf), anchored at start.
func (t *tracer) add(name string, parent, pass int32, start int64, d time.Duration, units int) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Pass: pass, Units: int64(units)})
}

// spanCost is what opening and closing one span costs, measured on a scratch
// tracer: the time a traced driver spends on tracing is its span count times
// this.
func spanCost() time.Duration {
	const n = 20_000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibration", -1, 0), 0)
	}
	return time.Since(t0) / n
}

// selfTimes is each span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerTotals aggregates one layer's spans: how much self time it accounts
// for, over how many units and allocations, and each span's own duration.
type layerTotals struct {
	self   time.Duration
	units  int64
	allocs int64
	calls  samples // span durations, ms
}

// perUnit is the layer's self time per unit handled, in nanoseconds.
func (l *layerTotals) perUnit() float64 {
	if l == nil || l.units == 0 {
		return 0
	}
	return float64(l.self) / float64(l.units)
}

// allocsPer is the layer's allocations per n units.
func (l *layerTotals) allocsPer(n int64) float64 {
	if l == nil || n == 0 {
		return 0
	}
	return float64(l.allocs) / float64(n)
}

// callMedianMs is the median duration of one span of the layer, in ms.
func (l *layerTotals) callMedianMs() float64 {
	if l == nil {
		return 0
	}
	return l.calls.median()
}

// byLayer groups the spans of the given passes (nil means all) by name.
func (t *tracer) byLayer(passes map[int32]bool) map[string]*layerTotals {
	self := selfTimes(t.spans)
	out := make(map[string]*layerTotals)
	for i := range t.spans {
		s := &t.spans[i]
		if passes != nil && !passes[s.Pass] {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		l.self += self[i]
		l.units += s.Units
		l.allocs += s.Allocs
		l.calls = append(l.calls, float64(s.dur())/1e6)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
