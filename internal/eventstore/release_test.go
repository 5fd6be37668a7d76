package eventstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/wal"
)

// readAll returns shard i's events [from, to) through ReadRange, copied.
func readAll(t *testing.T, st *Store, i, from, to int) []ids.Event {
	t.Helper()
	var out []ids.Event
	err := st.ReadRange(i, from, to, func(ev *ids.Event) error {
		out = append(out, *ev)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadRange(%d, %d, %d): %v", i, from, to, err)
	}
	return out
}

// releaseTwins opens two stores and feeds both the same committed batches.
func releaseTwins(t *testing.T, n int) (released, twin *Store) {
	t.Helper()
	var err error
	if released, err = Open(t.TempDir(), Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { released.Close() })
	if twin, err = Open(t.TempDir(), Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twin.Close() })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; {
		batch := make([]ids.Event, 0, 64)
		for k := 1 + rng.Intn(64); k > 0 && i < n; k-- {
			batch = append(batch, testEvent(i))
			i++
		}
		for _, st := range []*Store{released, twin} {
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return released, twin
}

// assertTwins checks that a released store answers every read exactly as
// its never-released twin does: the snapshot, each part's length and
// contents, and ranged reads across the base, across index strides and
// inside the released prefix.
func assertTwins(t *testing.T, step string, released, twin *Store) {
	t.Helper()
	got, want := mustSnapshot(t, released).Events(), mustSnapshot(t, twin).Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshots differ (%d events vs %d)", step, len(got), len(want))
	}
	for _, cut := range []func(*Store) []Part{(*Store).PublishedEvents, (*Store).CommittedEvents} {
		gp, wp := cut(released), cut(twin)
		for i := range wp {
			if gp[i].Len() != wp[i].Len() || wp[i].Base != 0 {
				t.Fatalf("%s: shard %d part covers %d events (base %d), twin %d (base %d)",
					step, i, gp[i].Len(), gp[i].Base, wp[i].Len(), wp[i].Base)
			}
			if !reflect.DeepEqual(readAll(t, released, i, 0, gp[i].Len()), wp[i].Events) {
				t.Fatalf("%s: shard %d reads differently from its twin", step, i)
			}
		}
		merged, err := released.Merge(gp, nil)
		if err != nil {
			t.Fatal(err)
		}
		twinMerged, err := twin.Merge(wp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged, twinMerged) {
			t.Fatalf("%s: Merge over released parts differs from the twin's", step)
		}
	}
	parts := twin.PublishedEvents()
	for i, p := range parts {
		base := released.PublishedEvents()[i].Base
		for _, r := range [][2]int{
			{0, 0}, {0, 1}, {base - 1, base + 1}, {base, base}, {base, p.Len()},
			{indexEvery - 1, indexEvery + 1}, {indexEvery, 2*indexEvery + 3}, {base / 2, base},
			{p.Len() - 1, p.Len()},
		} {
			from, to := max(r[0], 0), min(max(r[1], 0), p.Len())
			if from > to {
				continue
			}
			if got := readAll(t, released, i, from, to); !reflect.DeepEqual(got, readAll(t, twin, i, from, to)) {
				t.Fatalf("%s: shard %d range [%d, %d) differs from its twin", step, i, from, to)
			}
		}
	}
}

// TestReleaseParity: a store whose prefixes were released answers every read
// exactly like a twin that kept everything, whatever the release points —
// mid-batch, repeated at the base, zero, past the committed count — and
// keeps only the events past each shard's base in memory.
func TestReleaseParity(t *testing.T) {
	released, twin := releaseTwins(t, 3000)
	assertTwins(t, "nothing released", released, twin)

	rng := rand.New(rand.NewSource(2))
	counts := make([]int64, len(released.shards))
	for step := 0; step < 6; step++ {
		for i, p := range twin.CommittedEvents() {
			// Anywhere in the committed prefix: mid-batch almost always.
			counts[i] = max(counts[i], int64(rng.Intn(p.Len()+1)))
		}
		if err := released.Release(counts); err != nil {
			t.Fatal(err)
		}
		resident := 0
		for i, p := range released.PublishedEvents() {
			if int64(p.Base) != counts[i] {
				t.Fatalf("step %d: shard %d base %d after releasing %d", step, i, p.Base, counts[i])
			}
			resident += len(p.Events)
		}
		if got := released.Resident(); got != resident || released.Len() != twin.Len() {
			t.Fatalf("step %d: Resident %d (parts hold %d), Len %d (twin %d)", step, got, resident, released.Len(), twin.Len())
		}
		assertTwins(t, "released", released, twin)
		// Releasing at the base again, or at zero, changes nothing.
		if err := released.Release(counts); err != nil {
			t.Fatal(err)
		}
		if err := released.Release(make([]int64, len(counts))); err != nil {
			t.Fatal(err)
		}
		for i, p := range released.PublishedEvents() {
			if int64(p.Base) != counts[i] {
				t.Fatalf("step %d: shard %d base moved to %d on a no-op release", step, i, p.Base)
			}
		}
		// New appends land past the base and read back alike.
		batch := []ids.Event{testEvent(5000 + step), testEvent(6000 + step)}
		for _, st := range []*Store{released, twin} {
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		assertTwins(t, "appended after release", released, twin)
		for _, st := range []*Store{released, twin} {
			if err := st.Commit(nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A release never passes the committed count, even when asked to.
	if err := released.AppendBatch([]ids.Event{testEvent(9000)}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		counts[i] = 1 << 40
	}
	if err := released.Release(counts); err != nil {
		t.Fatal(err)
	}
	for i, p := range released.CommittedEvents() {
		if base := released.PublishedEvents()[i].Base; base != p.Len() {
			t.Fatalf("shard %d: released to %d, committed count is %d", i, base, p.Len())
		}
	}
	if err := released.ReadRange(0, 0, released.PublishedEvents()[0].Len()+1, func(*ids.Event) error { return nil }); err == nil {
		t.Fatal("a range past the shard's end read without error")
	}
	if err := released.Release(counts[:1]); err == nil {
		t.Fatal("a release for the wrong shard count succeeded")
	}
}

// TestReleaseCorruptLog: a damaged frame below the base fails every read
// that scans it — ranged reads and snapshots alike — rather than returning
// fewer events; reads that do not scan it still succeed.
func TestReleaseCorruptLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	events := make([]ids.Event, 600)
	for i := range events {
		events[i] = testEvent(i)
	}
	if err := st.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Release([]int64{500}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of event 300's frame.
	off := int64(len(fileMagic))
	for i := range 300 {
		off += int64(wal.FrameHeaderLen + len(EncodeEvent(nil, &events[i])))
	}
	off += wal.FrameHeaderLen + 3
	f, err := os.OpenFile(filepath.Join(dir, shardName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, r := range [][2]int{{0, 500}, {300, 301}, {290, 600}} {
		n := 0
		err := st.ReadRange(0, r[0], r[1], func(*ids.Event) error { n++; return nil })
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("range %v over the damaged frame: %d events, err %v", r, n, err)
		}
	}
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("snapshot over a damaged released frame succeeded")
	}
	// Reads that never scan the damaged frame — it is event 300, in the
	// index stride that starts at 256 — still succeed.
	for _, r := range [][2]int{{0, 300}, {256, 300}, {2 * indexEvery, 600}} {
		if got := readAll(t, st, 0, r[0], r[1]); len(got) != r[1]-r[0] {
			t.Fatalf("undamaged range %v read %d events", r, len(got))
		}
	}
}

// TestNoReleaseWithoutTimeline: nothing but an explicit release drops
// events — appends and commits alone keep the whole history resident.
func TestNoReleaseWithoutTimeline(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 40; i++ {
		batch := make([]ids.Event, 50)
		for j := range batch {
			batch[j] = testEvent(i*50 + j)
		}
		if err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if st.Resident() != 2000 || st.Len() != 2000 {
		t.Fatalf("resident %d of %d events without any release", st.Resident(), st.Len())
	}
	for _, p := range st.CommittedEvents() {
		if p.Base != 0 {
			t.Fatalf("a shard released to %d without a release", p.Base)
		}
	}
}
