package ids

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// sortEventsCanonical imposes a total order so the streamed scan's
// completion-ordered output can be compared against the batch scan's.
func sortEventsCanonical(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Src.Addr != b.Src.Addr {
			return a.Src.Addr.Less(b.Src.Addr)
		}
		if a.Src.Port != b.Src.Port {
			return a.Src.Port < b.Src.Port
		}
		if a.Dst.Addr != b.Dst.Addr {
			return a.Dst.Addr.Less(b.Dst.Addr)
		}
		if a.Dst.Port != b.Dst.Port {
			return a.Dst.Port < b.Dst.Port
		}
		return a.SID < b.SID
	})
}

// interleavedCapture writes a seeded interleaved capture of nFlows flows to
// in-memory pcap bytes.
func interleavedCapture(t *testing.T, seed int64, nFlows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	writeInterleavedCapture(t, w, seed, nFlows)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exclusiveSink wraps a sink so that two overlapping calls fail the test:
// the streamed scan promises it never calls sink concurrently. The yield
// inside the call widens the window an unserialized caller would hit.
func exclusiveSink(t *testing.T, sink func([]Event) error) func([]Event) error {
	var inFlight atomic.Int32
	return func(evs []Event) error {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("sink called concurrently: %d calls in flight", n)
		}
		defer inFlight.Add(-1)
		runtime.Gosched()
		return sink(evs)
	}
}

// checkNoLeak fails the test unless the goroutine count falls back to
// before, polled briefly: the streamed scan must stop every shard and match
// worker it started on every return path.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the scan, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScanCaptureStreamedParity: the streamed scan must deliver the same
// event multiset and exact stats as the batch sharded scan, for every shard
// and worker count, without ever calling the sink concurrently.
func TestScanCaptureStreamedParity(t *testing.T) {
	data := interleavedCapture(t, 42, 60)
	e := jndiEngine(t)

	wantEvents, wantStats, err := ScanCaptureSharded([]pcapio.PacketSource{openPcap(t, data)}, e, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEvents) < 10 {
		t.Fatalf("weak test input: only %d events", len(wantEvents))
	}
	want := append([]Event(nil), wantEvents...)
	sortEventsCanonical(want)

	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("shards%d_workers%d", shards, workers), func(t *testing.T) {
				var got []Event
				batches := 0
				stats, err := ScanCaptureStreamed(
					[]pcapio.PacketSource{openPcap(t, data)}, e,
					ScanConfig{Shards: shards, MatchWorkers: workers},
					exclusiveSink(t, func(evs []Event) error {
						got = append(got, evs...)
						batches++
						return nil
					}))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("stats differ:\n got %+v\nwant %+v", stats, wantStats)
				}
				sortEventsCanonical(got)
				if len(got) != len(want) {
					t.Fatalf("got %d events, want %d", len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
					}
				}
				if batches == 0 {
					t.Fatal("sink never called")
				}
			})
		}
	}
}

// TestScanCaptureStreamedSinkError: a failing sink must surface its error
// without deadlocking the pipeline, and must not be called again once it
// has failed — across a pool of match workers, too, and with several
// flow-partitioned sources emitting at once.
func TestScanCaptureStreamedSinkError(t *testing.T) {
	data := interleavedCapture(t, 7, 40)
	boom := errors.New("sink full")
	for _, c := range []struct {
		name string
		srcs func() []pcapio.PacketSource
	}{
		{"pcap", func() []pcapio.PacketSource { return []pcapio.PacketSource{openPcap(t, data)} }},
		{"partitioned", func() []pcapio.PacketSource {
			return partSources(partitionCapture(t, openPcap(t, data), 3, tcpasm.FlowShard))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			_, err := ScanCaptureStreamed(c.srcs(), jndiEngine(t),
				ScanConfig{Shards: 2, MatchWorkers: 4},
				exclusiveSink(t, func([]Event) error {
					calls++
					return boom
				}))
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the sink error", err)
			}
			if calls != 1 {
				t.Fatalf("sink called %d times, want once: delivery must stop at the first error", calls)
			}
		})
	}
}

// failingSource yields the first n records of src, then fails.
type failingSource struct {
	src pcapio.PacketSource
	n   int
}

var errCaptureTorn = errors.New("capture torn")

func (f *failingSource) Next() (pcapio.Packet, error) {
	if f.n == 0 {
		return pcapio.Packet{}, errCaptureTorn
	}
	f.n--
	return f.src.Next()
}

// TestScanCaptureStreamedNoLeak: every return path — success, sink error,
// and a capture that fails mid-read — stops all the goroutines the scan
// started before it returns, on one pcap source and on flow-partitioned
// sources alike.
func TestScanCaptureStreamedNoLeak(t *testing.T) {
	data := interleavedCapture(t, 7, 40)
	e := jndiEngine(t)
	boom := errors.New("sink full")
	records := 0
	for r := openPcap(t, data); ; records++ {
		if _, err := r.Next(); err != nil {
			break
		}
	}
	parts := partitionCapture(t, openPcap(t, data), 3, tcpasm.FlowShard)
	pcap := func() []pcapio.PacketSource { return []pcapio.PacketSource{openPcap(t, data)} }
	partitioned := func() []pcapio.PacketSource { return partSources(parts) }
	okSink := func([]Event) error { return nil }
	cases := []struct {
		name    string
		srcs    func() []pcapio.PacketSource
		sink    func([]Event) error
		wantErr error
	}{
		{"success", pcap, okSink, nil},
		{"sink_error", pcap, func([]Event) error { return boom }, boom},
		{"read_error", func() []pcapio.PacketSource {
			return []pcapio.PacketSource{&failingSource{openPcap(t, data), records / 2}}
		}, okSink, errCaptureTorn},
		{"partitioned_success", partitioned, okSink, nil},
		{"partitioned_sink_error", partitioned, func([]Event) error { return boom }, boom},
		{"partitioned_read_error", func() []pcapio.PacketSource {
			srcs := partSources(parts)
			srcs[1] = failingPart{&failingSource{srcs[1], len(parts[1]) / 2}}
			return srcs
		}, okSink, errCaptureTorn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srcs := c.srcs()
			before := runtime.NumGoroutine()
			_, err := ScanCaptureStreamed(srcs, e, ScanConfig{Shards: 3, MatchWorkers: 4}, c.sink)
			if c.wantErr == nil && err != nil || c.wantErr != nil && !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			checkNoLeak(t, before)
		})
	}
}

// TestScanCaptureStreamedNilSink: a nil sink means "drop the events" — the
// scan still runs to completion and reports exact stats.
func TestScanCaptureStreamedNilSink(t *testing.T) {
	data := buildCapture(t)
	_, want, err := ScanCapture(openPcap(t, data), jndiEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if want.MatchedEvents == 0 {
		t.Fatal("weak test input: no events")
	}
	got, err := ScanCaptureStreamed([]pcapio.PacketSource{openPcap(t, data)}, jndiEngine(t), ScanConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
