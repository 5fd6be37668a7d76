package ids

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pcapio"
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

// TestScanCaptureStreamedParity: the streamed scan must deliver the same
// event multiset and exact stats as the batch sharded scan, for every shard
// and worker count.
func TestScanCaptureStreamedParity(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	writeInterleavedCapture(t, w, 42, 60)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	e := jndiEngine(t)

	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantEvents, wantStats, err := ScanCaptureSharded([]pcapio.PacketSource{r}, e, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEvents) < 10 {
		t.Fatalf("weak test input: only %d events", len(wantEvents))
	}
	want := append([]Event(nil), wantEvents...)
	sortEventsCanonical(want)

	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards%d_workers%d", shards, workers), func(t *testing.T) {
				r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var got []Event
				batches := 0
				stats, err := ScanCaptureStreamed(
					[]pcapio.PacketSource{r}, e,
					ScanConfig{Shards: shards, MatchWorkers: workers},
					func(evs []Event) error {
						got = append(got, evs...)
						batches++
						return nil
					})
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
// without deadlocking the pipeline.
func TestScanCaptureStreamedSinkError(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	writeInterleavedCapture(t, w, 7, 40)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	_, err = ScanCaptureStreamed([]pcapio.PacketSource{r}, jndiEngine(t), ScanConfig{Shards: 2},
		func([]Event) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
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
