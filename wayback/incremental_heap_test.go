package wayback

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/timeline"
)

// TestIncrementalRebuildKeepsNoHistory: over a fully sealed store, a new
// Incremental's first Results rebuilds from the whole history read back
// from the logs. It folds that history into its aggregates and drops it, so
// the live heap after the call grows by at most one segment's worth of
// events, where holding the rebuild's merge would grow it by every event.
func TestIncrementalRebuildKeepsNoHistory(t *testing.T) {
	const segment, n = 4096, 80000
	study, err := NewStudy(Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng, err := study.OpenTimeline(t.TempDir(), store, timeline.Config{SegmentEvents: segment})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]ids.Event, 500)
	for i := 0; i < n; i += len(batch) {
		for j := range batch {
			k := rng.Intn(64)
			batch[j] = ids.Event{
				Time:      base.Add(time.Duration(rng.Int63n(int64(2 * 365 * 24 * time.Hour)))).Truncate(time.Second),
				Src:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{203, 0, byte(rng.Intn(16)), byte(rng.Intn(256))}), Port: uint16(1024 + rng.Intn(60000))},
				Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{18, 204, 0, 1}), Port: 443},
				SID:       50000 + k,
				Published: base.AddDate(0, 0, k),
				CVE:       fmt.Sprintf("2021-%d", 40000+k),
				Msg:       "SERVER-WEBAPP exploitation attempt",
				Bytes:     200 + rng.Intn(2000),
			}
		}
		if err := store.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if store.Resident() != 0 {
		t.Fatalf("%d events resident after sealing everything", store.Resident())
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	before := liveHeap()
	inc := study.NewIncremental(store)
	res, _, err := inc.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MatchedEvents != n {
		t.Fatalf("Results over %d matched events, want %d", res.Stats.MatchedEvents, n)
	}
	res = nil
	after := liveHeap()
	bound := uint64(segment * unsafe.Sizeof(ids.Event{}))
	t.Logf("live heap %d -> %d bytes after a rebuild over %d sealed events (bound +%d)", before, after, n, bound)
	if after > before+bound {
		t.Fatalf("the rebuild left the live heap %d bytes larger; one segment's events are %d bytes",
			after-before, bound)
	}
	runtime.KeepAlive(inc)
}
