package timeline_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/timeline"
)

// TestSealReleaseConcurrent seals while appends and commits race ahead of
// the sealer and as-of queries, skill series and snapshots read throughout:
// every seal releases what it sealed, and no reader may ever find the
// unsealed tail it needs gone from memory. The answers at the end match the
// batch pipeline.
func TestSealReleaseConcurrent(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)

	cuts := cutPoints(events, 6)
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	loop := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	loop(func(int) error {
		_, err := eng.Seal()
		time.Sleep(100 * time.Microsecond)
		return err
	})
	for w := 0; w < 2; w++ {
		loop(func(i int) error {
			v, err := eng.AsOf(cuts[(i+w)%len(cuts)])
			if err == nil {
				_ = v.Timelines()
			}
			return err
		})
	}
	loop(func(int) error {
		_, err := eng.SkillSeries(cuts[0], cuts[len(cuts)-1], 90*24*time.Hour)
		return err
	})
	loop(func(int) error {
		_, err := st.Snapshot()
		return err
	})

	// Commits race the sealer; every third batch stays uncommitted until
	// the next one, so the published tail runs ahead of the committed cut.
	per := len(events)/600 + 1
	for i := 0; i < len(events); i += per {
		end := min(i+per, len(events))
		if (i/per)%3 == 0 {
			if err := st.AppendBatch(events[i:end]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		appendCommit(t, st, events[i:end])
	}
	if err := st.Commit(nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); st.Resident() != 0 || m.SealedEvents != int64(len(events)) {
		t.Fatalf("after sealing everything: %d events resident, %d of %d sealed", st.Resident(), m.SealedEvents, len(events))
	}
	sameEventSet(t, "snapshot", mustSnapshot(t, st).Events(), events)
	checkParity(t, study, eng, events, cuts[len(cuts)/2])
	checkParity(t, study, eng, events, cuts[len(cuts)-1])
}

// TestReopenHoldsUnsealedTail: a store reopened under its timeline keeps
// only the events no segment holds, and still answers over all of them.
func TestReopenHoldsUnsealedTail(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)
	if err := st.Close(); err != nil { // commits the volatile tail
		t.Fatal(err)
	}

	st = openStore(t, fs)
	defer st.Close()
	if st.Resident() != len(events) {
		t.Fatalf("a store opened without its timeline holds %d of %d events", st.Resident(), len(events))
	}
	eng = openEngine(t, fs, st, 1)
	sealed := eng.Metrics().SealedEvents
	if sealed == 0 || sealed == int64(len(events)) {
		t.Fatalf("fixture sealed %d of %d events; want a sealed prefix and an unsealed tail", sealed, len(events))
	}
	if got, want := st.Resident(), len(events)-int(sealed); got != want {
		t.Fatalf("reopened store holds %d events; the unsealed tail is %d", got, want)
	}
	if st.Len() != len(events) {
		t.Fatalf("reopened store counts %d events, want %d", st.Len(), len(events))
	}
	sameEventSet(t, "snapshot", mustSnapshot(t, st).Events(), events)
	cuts := cutPoints(events, 4)
	checkParity(t, study, eng, events, cuts[len(cuts)-1])
}

// TestReleaseBoundsMemory is the bounded-memory contract: once the timeline
// seals behind ingest, doubling the events a store has taken in grows its
// live heap by at most one segment's worth of events, where keeping them
// all would grow it by every event.
func TestReleaseBoundsMemory(t *testing.T) {
	const segment = 4096
	dir := t.TempDir()
	st, err := eventstore.Open(filepath.Join(dir, "store"), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := timeline.Open(timeline.Config{Dir: filepath.Join(dir, "tl"), Store: st, SegmentEvents: segment})
	if err != nil {
		t.Fatal(err)
	}
	gen := newEventGen(1)
	ingest := func(n int) {
		for i := 0; i < n; i += 512 {
			appendCommit(t, st, gen.batch(512))
			if _, err := eng.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	const n = 10 * segment
	ingest(n)
	before := liveHeap()
	ingest(n)
	after := liveHeap()
	bound := uint64(segment * unsafe.Sizeof(ids.Event{}))
	t.Logf("live heap %d -> %d bytes after %d more events (bound +%d)", before, after, n, bound)
	if after > before+bound {
		t.Fatalf("live heap grew %d bytes over %d more events; one segment's events are %d bytes",
			after-before, n, bound)
	}
	if st.Len() != 2*n || st.Resident() >= segment {
		t.Fatalf("store counts %d events with %d resident", st.Len(), st.Resident())
	}
	runtime.KeepAlive(eng)
}

// eventGen makes study-shaped events from a fixed pool of strings and
// addresses, so the generator itself holds nothing per event.
type eventGen struct {
	rng        *rand.Rand
	msgs, cves []string
	base       time.Time
}

func newEventGen(seed int64) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), base: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	for i := 0; i < 64; i++ {
		g.msgs = append(g.msgs, fmt.Sprintf("SERVER-WEBAPP rule %d exploitation attempt", i))
		g.cves = append(g.cves, fmt.Sprintf("2021-%d", 40000+i))
	}
	return g
}

func (g *eventGen) batch(n int) []ids.Event {
	out := make([]ids.Event, n)
	for i := range out {
		k := g.rng.Intn(64)
		out[i] = ids.Event{
			Time:      g.base.Add(time.Duration(g.rng.Int63n(int64(2 * 365 * 24 * time.Hour)))).Truncate(time.Second),
			Src:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{203, 0, byte(g.rng.Intn(16)), byte(g.rng.Intn(256))}), Port: uint16(1024 + g.rng.Intn(60000))},
			Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{18, 204, 0, 1}), Port: 443},
			SID:       50000 + k,
			Published: g.base.AddDate(0, 0, k),
			CVE:       g.cves[k],
			Msg:       g.msgs[k],
			Bytes:     200 + g.rng.Intn(2000),
		}
	}
	return out
}

// TestSnapshotKeepsNoHistory: Store.Snapshot reads the released history back
// from the logs for its caller alone. Once the caller drops the snapshot,
// the live heap of a fully sealed store is back to its resident tail, where
// a store that kept the merged history would hold every event again.
func TestSnapshotKeepsNoHistory(t *testing.T) {
	const segment, n = 4096, 80000
	dir := t.TempDir()
	st, err := eventstore.Open(filepath.Join(dir, "store"), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := timeline.Open(timeline.Config{Dir: filepath.Join(dir, "tl"), Store: st, SegmentEvents: segment})
	if err != nil {
		t.Fatal(err)
	}
	gen := newEventGen(2)
	for i := 0; i < n; i += 500 {
		appendCommit(t, st, gen.batch(500))
		if _, err := eng.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeapBytes()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Len() != n {
		t.Fatalf("snapshot of %d events, want %d", sn.Len(), n)
	}
	sn = nil
	after := liveHeapBytes()
	bound := uint64(segment * unsafe.Sizeof(ids.Event{}))
	t.Logf("live heap %d -> %d bytes after a dropped snapshot of %d events, %d resident (bound +%d)",
		before, after, n, st.Resident(), bound)
	if after > before+bound {
		t.Fatalf("a dropped snapshot left the live heap %d bytes larger; one segment's events are %d bytes",
			after-before, bound)
	}
	runtime.KeepAlive(eng)
}

// liveHeapBytes returns the heap still reachable after two collections.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
