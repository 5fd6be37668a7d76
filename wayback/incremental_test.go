package wayback

import (
	"reflect"
	"testing"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/timeline"
)

// assertParity checks that an incremental Results is byte-for-byte
// indistinguishable from a cold recompute at the same generation: the raw
// event set, the scan stats, the timelines, and the rendered analyses that
// exercise each of them.
func assertParity(t *testing.T, step string, study *Study, inc *Incremental, store *eventstore.Store) {
	t.Helper()
	incRes, incGen, err := inc.Results()
	if err != nil {
		t.Fatalf("%s: incremental results: %v", step, err)
	}
	coldGen := store.Generation()
	coldRes, err := study.ResultsFromStore(store)
	if err != nil {
		t.Fatalf("%s: cold results: %v", step, err)
	}
	if incGen != coldGen {
		t.Fatalf("%s: incremental generation %d, cold %d", step, incGen, coldGen)
	}
	if err := incRes.MaterializeEvents(); err != nil {
		t.Fatalf("%s: materializing incremental events: %v", step, err)
	}
	if !reflect.DeepEqual(incRes.Events, coldRes.Events) {
		t.Fatalf("%s: event sets differ (incremental %d events, cold %d)",
			step, len(incRes.Events), len(coldRes.Events))
	}
	if incRes.Stats != coldRes.Stats {
		t.Fatalf("%s: stats differ:\nincremental %+v\ncold        %+v", step, incRes.Stats, coldRes.Stats)
	}
	if !reflect.DeepEqual(incRes.Timelines, coldRes.Timelines) {
		t.Fatalf("%s: timelines differ", step)
	}
	if got, want := incRes.Table4().String(), coldRes.Table4().String(); got != want {
		t.Fatalf("%s: Table 4 differs:\nincremental:\n%s\ncold:\n%s", step, got, want)
	}
	if got, want := incRes.Table5().String(), coldRes.Table5().String(); got != want {
		t.Fatalf("%s: Table 5 differs", step)
	}
	if !reflect.DeepEqual(incRes.Figure3(), coldRes.Figure3()) {
		t.Fatalf("%s: Figure 3 differs", step)
	}
	if !reflect.DeepEqual(incRes.Figure7(), coldRes.Figure7()) {
		t.Fatalf("%s: Figure 7 differs", step)
	}
	if got, want := incRes.MitigatedShare(), coldRes.MitigatedShare(); got != want {
		t.Fatalf("%s: mitigated share %v, cold %v", step, got, want)
	}
}

// TestIncrementalParity drives a multi-batch ingest — including an amendment
// rescan and a raw event colliding with an amended session — and proves the
// incremental Results equals a from-scratch recompute at every intermediate
// generation.
func TestIncrementalParity(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Events
	if len(events) < 100 {
		t.Fatalf("study produced only %d events", len(events))
	}
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	inc := study.NewIncremental(store)

	// Empty store: the initial build over nothing must still match cold.
	assertParity(t, "empty", study, inc, store)

	// Multi-batch ingest: uneven batch sizes so shard suffixes differ per
	// generation.
	cuts := []int{1, 7, len(events) / 3, 2 * len(events) / 3, len(events)}
	prev := 0
	for _, cut := range cuts {
		if err := store.AppendBatch(events[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		assertParity(t, "batch", study, inc, store)
	}
	m := inc.Metrics()
	if m.Rebuilds != 1 {
		t.Fatalf("got %d rebuilds during pure appends, want 1 (the initial build)", m.Rebuilds)
	}
	if m.Folds != uint64(len(cuts)) {
		t.Fatalf("got %d folds for %d append generations", m.Folds, len(cuts))
	}
	if m.FoldedEvents != uint64(len(events)) {
		t.Fatalf("folded %d events, appended %d", m.FoldedEvents, len(events))
	}

	// Amendment rescan: re-label one session, retract another. This must
	// trigger the loud fallback rebuild and still match cold exactly.
	sn := mustSnapshot(t, store)
	orig := sn.Events()[0]
	relabeled := orig
	for i := range sn.Events() {
		if cve := sn.Events()[i].CVE; cve != "" && cve != orig.CVE {
			relabeled.CVE = cve
			break
		}
	}
	if relabeled.CVE == orig.CVE {
		t.Fatal("no second CVE in the event set to re-label with")
	}
	retracted := sn.Events()[1]
	retractEv := retracted
	retractEv.SID = 0
	retractEv.CVE = ""
	if err := store.AppendAmendments([]eventstore.Amendment{
		{Event: relabeled, OrigSID: orig.SID, OrigCVE: orig.CVE, Gen: 1},
		{Event: retractEv, OrigSID: retracted.SID, OrigCVE: retracted.CVE, Gen: 1},
	}); err != nil {
		t.Fatal(err)
	}
	assertParity(t, "amendment", study, inc, store)
	if got := inc.Metrics().Rebuilds; got != 2 {
		t.Fatalf("got %d rebuilds after amendment, want 2", got)
	}

	// Appends after the amendment fold incrementally again.
	extra := events[0]
	extra.Time = extra.Time.Add(1)
	if err := store.AppendBatch([]ids.Event{extra}); err != nil {
		t.Fatal(err)
	}
	assertParity(t, "post-amendment append", study, inc, store)
	if got := inc.Metrics().Rebuilds; got != 2 {
		t.Fatalf("got %d rebuilds after non-colliding append, want 2", got)
	}

	// A raw event for a session an amendment claims cannot fold (the overlay
	// rewrites it); it must fall back and still match cold.
	collide := retracted
	if err := store.AppendBatch([]ids.Event{collide}); err != nil {
		t.Fatal(err)
	}
	assertParity(t, "colliding append", study, inc, store)
	if got := inc.Metrics().Rebuilds; got != 3 {
		t.Fatalf("got %d rebuilds after colliding append, want 3", got)
	}

	// Quiet store: repeated queries reuse the cached Results.
	r1, g1, err1 := inc.Results()
	r2, g2, err2 := inc.Results()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1 != r2 || g1 != g2 {
		t.Fatal("quiet-store queries did not reuse the cached Results")
	}
}

// TestIncrementalAppendixTimelines covers the non-pipeline configuration: the
// timelines come from the embedded appendix either way, and parity must hold.
func TestIncrementalAppendixTimelines(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	inc := study.NewIncremental(store)
	half := len(batch.Events) / 2
	for _, part := range [][]ids.Event{batch.Events[:half], batch.Events[half:]} {
		if err := store.AppendBatch(part); err != nil {
			t.Fatal(err)
		}
		assertParity(t, "appendix", study, inc, store)
	}
}

// mustSnapshot returns st's snapshot, failing the test if it cannot be read.
func mustSnapshot(t testing.TB, st *eventstore.Store) *eventstore.Snapshot {
	t.Helper()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestIncrementalReleaseLag: the timeline releases sealed history from the
// store's memory, and a seal can overtake the incremental view — events the
// view has not folded yet may already live only in the shard logs. The view
// must read that stretch back and fold it, without a rebuild, and stay equal
// to a cold recompute; a Results handed out before the release must still
// materialize its events.
func TestIncrementalReleaseLag(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Events
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng, err := study.OpenTimeline(t.TempDir(), store, timeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc := study.NewIncremental(store)
	appendCommit := func(evs []ids.Event) {
		t.Helper()
		if err := store.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	seal := func() {
		t.Helper()
		if sealed, err := eng.Seal(); err != nil || !sealed {
			t.Fatalf("seal: sealed=%v err=%v", sealed, err)
		}
	}
	third := len(events) / 3

	appendCommit(events[:third])
	assertParity(t, "first third", study, inc, store)
	early, _, err := inc.Results() // its event set stays lazy until after the release
	if err != nil {
		t.Fatal(err)
	}
	earlyCold := mustSnapshot(t, store).Events()
	seal()

	// The second third is committed and sealed before the view looks: its
	// fold position now lies below every shard's base.
	appendCommit(events[third : 2*third])
	seal()
	released := 0
	for i, p := range store.PublishedEvents() {
		if len(p.Events) != 0 {
			t.Fatalf("shard %d: %d events resident after sealing everything", i, len(p.Events))
		}
		released += p.Base
	}
	if released != 2*third {
		t.Fatalf("released %d events, sealed %d", released, 2*third)
	}
	assertParity(t, "lagging behind a release", study, inc, store)

	if err := early.MaterializeEvents(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(early.Events, earlyCold) {
		t.Fatal("a Results from before the release materialized a different event set")
	}

	// The rest arrives partly uncommitted, on top of the released history.
	appendCommit(events[2*third : len(events)-5])
	if err := store.AppendBatch(events[len(events)-5:]); err != nil {
		t.Fatal(err)
	}
	assertParity(t, "unsealed tail", study, inc, store)
	// The initial build took the first third; everything after it folded.
	if m := inc.Metrics(); m.Rebuilds != 1 || m.FoldedEvents != uint64(len(events)-third) {
		t.Fatalf("rebuilds %d (want 1, the initial build), folded %d events (want %d)", m.Rebuilds, m.FoldedEvents, len(events)-third)
	}
}
