package timeline_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/timeline"
)

// TestViewOverlaysAmendments drives the retroactive re-attribution read
// path: after a rescan writes amendments, an as-of view must answer with the
// re-labeled history — stats, timelines, per-CVE events, and diffs — while
// the sealed segments keep the raw record.
func TestViewOverlaysAmendments(t *testing.T) {
	dir := t.TempDir()
	st, err := eventstore.Open(filepath.Join(dir, "store"), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	basePub := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	earlyPub := time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)
	t1 := time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC)
	t2 := t1.Add(time.Hour)
	src := func(port uint16) packet.Endpoint {
		return packet.Endpoint{Addr: packet.MustAddr("203.0.113.7"), Port: port}
	}
	dst := packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80}

	// Session 1 matched at ingest; session 2 did not (no raw event).
	raw := ids.Event{
		Time: t1, Src: src(40001), Dst: dst,
		SID: 100, Published: basePub, CVE: "2022-1000", Msg: "base", Bytes: 64,
	}
	appendCommit(t, st, []ids.Event{raw})

	eng, err := timeline.Open(timeline.Config{
		Dir:     filepath.Join(dir, "tl"),
		Store:   st,
		RulePub: map[int]time.Time{100: basePub},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}

	at := t2.Add(time.Hour)
	before, err := eng.AsOf(at)
	if err != nil {
		t.Fatal(err)
	}
	if before.Amended() != 0 || before.EventCount() != 1 {
		t.Fatalf("pre-amendment view: amended %d events %d", before.Amended(), before.EventCount())
	}
	beforeTLs := before.Timelines()

	// A later ruleset publication re-attributed both sessions: session 1
	// re-labels to an earlier-published rule, session 2 gains a label.
	amends := []eventstore.Amendment{
		{
			Event: ids.Event{
				Time: t1, Src: src(40001), Dst: dst,
				SID: 200, Published: earlyPub, CVE: "2021-2000", Msg: "earlier", Bytes: 64,
			},
			OrigSID: 100, OrigCVE: "2022-1000", Gen: 1,
		},
		{
			Event: ids.Event{
				Time: t2, Src: src(40002), Dst: dst,
				SID: 201, Published: earlyPub, CVE: "2021-3000", Msg: "late sig", Bytes: 32,
			},
			Gen: 1,
		},
	}
	if err := st.AppendAmendments(amends); err != nil {
		t.Fatal(err)
	}

	after, err := eng.AsOf(at)
	if err != nil {
		t.Fatal(err)
	}
	if after.Amended() != 2 {
		t.Fatalf("Amended() = %d, want 2", after.Amended())
	}
	if after.EventCount() != 2 {
		t.Fatalf("EventCount() = %d, want 2", after.EventCount())
	}
	if s := after.Stats(); s.DistinctCVEs != 2 || s.MatchedEvents != 2 {
		t.Fatalf("amended stats: %+v", s)
	}
	events, err := after.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].SID != 200 || events[1].SID != 201 {
		t.Fatalf("amended events: %+v", events)
	}
	got, err := after.Read(timeline.Filter{CVE: "2022-1000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("raw CVE still visible after re-label: %+v", got)
	}
	got, err = after.Read(timeline.Filter{CVE: "2021-2000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SID != 200 {
		t.Fatalf("re-labeled CVE events: %+v", got)
	}

	// A view cut before the amended sessions sees no overlay at all.
	early, err := eng.AsOf(t1.Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if early.Amended() != 0 || early.EventCount() != 0 {
		t.Fatalf("pre-history view: amended %d events %d", early.Amended(), early.EventCount())
	}

	// The diff between the raw-labeled and amended views moves the letters:
	// the original CVE loses its events, the re-attributed ones appear new.
	diffs := timeline.DiffTimelines(beforeTLs, after.Timelines())
	byCVE := map[string]timeline.CVEDiff{}
	for _, d := range diffs {
		byCVE[d.CVE] = d
	}
	if d, ok := byCVE["2021-2000"]; !ok || !d.New || d.EventsTo != 1 || len(d.Changed) == 0 {
		t.Fatalf("diff for re-labeled CVE: %+v (present %v)", byCVE["2021-2000"], ok)
	}
	if d, ok := byCVE["2021-3000"]; !ok || !d.New || d.EventsTo != 1 {
		t.Fatalf("diff for added CVE: %+v (present %v)", byCVE["2021-3000"], ok)
	}
	if _, ok := byCVE["2022-1000"]; ok {
		// DiffTimelines iterates the "to" side; a CVE that vanished outright
		// has no entry. Its disappearance is visible via membership instead.
		t.Fatalf("retracted CVE unexpectedly present in diff")
	}
	for _, tl := range after.Timelines() {
		if tl.CVE == "2022-1000" {
			t.Fatalf("retracted CVE still has a timeline: %+v", tl)
		}
	}

	// Max-generation wins: a newer amendment restoring the original label
	// supersedes the gen-1 re-label.
	if err := st.AppendAmendments([]eventstore.Amendment{{
		Event: raw, OrigSID: 100, OrigCVE: "2022-1000", Gen: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	restored, err := eng.AsOf(at)
	if err != nil {
		t.Fatal(err)
	}
	events, err = restored.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].SID != 100 || events[1].SID != 201 {
		t.Fatalf("gen-2 restore: %+v", events)
	}
}
