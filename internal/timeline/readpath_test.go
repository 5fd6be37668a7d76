package timeline_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/serve"
	"repro/internal/timeline"
	"repro/internal/wal"
)

// distinctTimes returns the event set's distinct times, ascending.
func distinctTimes(events []ids.Event) []time.Time {
	seen := map[int64]bool{}
	var out []time.Time
	for _, ev := range events {
		if k := ev.Time.UnixNano(); !seen[k] {
			seen[k] = true
			out = append(out, ev.Time)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// chunkCuts returns the cut of each checkpoint feed(…, chunks) writes with
// a checkpoint per segment: the latest event time over the chunks sealed so
// far.
func chunkCuts(events []ids.Event, chunks int) []time.Time {
	per := (len(events) + chunks - 1) / chunks
	var cuts []time.Time
	var max time.Time
	for i, ev := range events {
		if ev.Time.After(max) {
			max = ev.Time
		}
		if (i+1)%per == 0 && i+1 < len(events) {
			cuts = append(cuts, max)
		}
	}
	return cuts
}

// pointAt is the skill point an independent as-of view at t answers.
func pointAt(tb testing.TB, eng *timeline.Engine, t time.Time) timeline.SkillPoint {
	tb.Helper()
	v, err := eng.AsOf(t)
	if err != nil {
		tb.Fatalf("AsOf(%s): %v", t, err)
	}
	tls := v.Timelines()
	res := core.EvaluateDesiderata(tls, core.PublishedBaselines())
	return timeline.SkillPoint{
		Date:      t,
		CVEs:      len(tls),
		Events:    v.EventCount(),
		MeanSkill: core.MeanSkill(res),
		Skillful:  core.SkillfulCount(res),
	}
}

type sweep struct {
	name     string
	from, to time.Time
	step     time.Duration
}

// sweeps are series whose steps land exactly on event times and checkpoint
// cuts, start before the first event, and cross every segment boundary.
func sweeps(events []ids.Event, chunks int) []sweep {
	d := distinctTimes(events)
	first, last := d[0], d[len(d)-1]
	span := last.Sub(first)
	cuts := chunkCuts(events, chunks)
	q1, q2 := d[len(d)/4], d[len(d)/2]
	return []sweep{
		// The second point is the first event's time.
		{"before-first", first.Add(-span / 7), last.Add(span / 7), span / 7},
		{"fine", first.Add(-span / 40), last.Add(time.Hour), span / 40},
		// Every point is an event time: q1, q2, 2·q2−q1, ...
		{"on-events", q1, last, q2.Sub(q1)},
		// Steps land on the first two checkpoint cuts.
		{"on-cuts", cuts[0], last.Add(time.Hour), cuts[1].Sub(cuts[0])},
		{"one-point", q2, q2, time.Hour},
	}
}

// checkSweeps asserts every point of every sweep equals the point an
// independent AsOf at its date answers.
func checkSweeps(t *testing.T, eng *timeline.Engine, events []ids.Event, chunks int) {
	t.Helper()
	for _, sw := range sweeps(events, chunks) {
		series, err := eng.SkillSeries(sw.from, sw.to, sw.step)
		if err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		n := 0
		for at := sw.from; !at.After(sw.to); at = at.Add(sw.step) {
			n++
		}
		if len(series) != n {
			t.Fatalf("%s: %d points, want %d", sw.name, len(series), n)
		}
		for i, got := range series {
			if want := pointAt(t, eng, got.Date); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: point %d at %s is %+v; AsOf answers %+v", sw.name, i, got.Date, got, want)
			}
		}
	}
}

// TestSkillSeriesMatchesAsOf fences the forward fold: over every read tier
// (checkpointed segments, fresh segments, committed and volatile tails),
// each point of a series equals the point an independent as-of view at its
// date answers — including steps that land exactly on event times, where a
// fold over [prev, t] instead of (prev, t] would count events twice.
func TestSkillSeriesMatchesAsOf(t *testing.T) {
	_, batch := studyFixture(t)
	events := batch.Events
	for _, cfg := range []struct {
		name      string
		ckptEvery int
		chunks    int
	}{
		{"ckpt1-seg9", 1, 9},
		{"ckpt3-seg9", 3, 9},
		{"nockpt-seg31", -1, 31},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			fs := fault.NewSimFS(7, fault.Profile{})
			st := openStore(t, fs)
			defer st.Close()
			eng := openEngine(t, fs, st, cfg.ckptEvery)
			feed(t, st, eng, events, cfg.chunks)
			checkSweeps(t, eng, events, cfg.chunks)
		})
	}
}

// TestSkillSeriesMatchesAsOfAmended is the same fence once a re-attribution
// applies inside the swept range: each step is then its own as-of view.
func TestSkillSeriesMatchesAsOfAmended(t *testing.T) {
	_, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)

	// Re-label a mid-study event to a signature of its own, so every point
	// from then on counts one more CVE than the raw history holds.
	d := distinctTimes(events)
	mid := d[len(d)/2]
	var target ids.Event
	for _, ev := range events {
		if ev.Time.Equal(mid) {
			target = ev
			break
		}
	}
	relabeled := target
	relabeled.SID, relabeled.CVE, relabeled.Msg = 990001, "2021-99999", "re-attributed"
	relabeled.Published = d[0].Add(-24 * time.Hour)
	if err := st.AppendAmendments([]eventstore.Amendment{{
		Event: relabeled, OrigSID: target.SID, OrigCVE: target.CVE, Gen: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	if v, err := eng.AsOf(mid); err != nil || v.Amended() != 1 {
		t.Fatalf("the amendment does not apply at %s (err %v)", mid, err)
	}
	checkSweeps(t, eng, events, 9)
}

// TestCorruptSegmentFailsLoud flips one byte inside a sealed segment's event
// frame. Every read that covers the frame must fail — AsOf, Read, Events, a
// checkpoint build, and the serve endpoints over them — instead of answering
// from the events before the damage.
func TestCorruptSegmentFailsLoud(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, -1) // no checkpoints: every query reads every segment
	feed(t, st, eng, events, 9)
	d := distinctTimes(events)
	end := d[len(d)-1].Add(time.Hour)
	before, err := eng.AsOf(end) // read after the damage, through its snapshot
	if err != nil {
		t.Fatal(err)
	}

	// The middle event frame of segment 1.
	const path = "tl/segment-000001.seg"
	raw, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type frame struct{ off, size int }
	var frames []frame
	off := 8 // past the magic
	if _, _, err := wal.ScanFrames(raw[off:], 1<<20, func(p []byte) error {
		if p[0] == 'E' {
			frames = append(frames, frame{off, wal.FrameHeaderLen + len(p)})
		}
		off += wal.FrameHeaderLen + len(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	victim := frames[len(frames)/2]
	ev, err := eventstore.DecodeEvent(raw[victim.off+wal.FrameHeaderLen+1 : victim.off+victim.size])
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := int64(victim.off + victim.size - 1)
	if _, err := f.Seek(last, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{raw[last] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, at := range []time.Time{ev.Time, end} {
		if v, err := eng.AsOf(at); err == nil {
			t.Fatalf("AsOf(%s) over a corrupt segment answered %d events, no error", at, v.EventCount())
		}
	}
	if got, err := before.Read(timeline.Filter{CVE: ev.CVE}); err == nil {
		t.Fatalf("Read(CVE %s) over a corrupt segment answered %d events, no error", ev.CVE, len(got))
	}
	if got, err := before.Events(); err == nil {
		t.Fatalf("Events over a corrupt segment answered %d events, no error", len(got))
	}
	if _, err := eng.SkillSeries(ev.Time, end, time.Hour*24*30); err == nil {
		t.Fatal("SkillSeries over a corrupt segment answered, no error")
	}
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("Checkpoint folded a corrupt segment without error")
	}
	if n := eng.Metrics().Checkpoints; n != 0 {
		t.Fatalf("%d checkpoints written over a corrupt segment", n)
	}

	srv, err := serve.New(serve.Config{Study: study, Store: st, Timeline: eng})
	if err != nil {
		t.Fatal(err)
	}
	stamp := url.QueryEscape(end.Format(time.RFC3339))
	for _, path := range []string{
		"/v1/tables/4?asof=" + stamp,
		"/v1/lifecycles/CVE-" + ev.CVE + "?asof=" + stamp,
		"/v1/skill?from=" + url.QueryEscape(ev.Time.Format(time.RFC3339)) + "&to=" + stamp + "&step_days=30",
		"/v1/events",
		"/v1/events?cve=CVE-" + ev.CVE + "&asof=" + stamp,
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("GET %s over a corrupt segment: %d, want 500: %.200s", path, rec.Code, rec.Body.String())
		}
	}
}
