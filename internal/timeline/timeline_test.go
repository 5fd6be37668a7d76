package timeline_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/timeline"
	"repro/wayback"
)

// The parity tests compare as-of answers against the batch pipeline run over
// the filtered event set — the ground truth the tentpole promises to match.
// The study run is expensive, so it is shared across the whole package.
var studyFix struct {
	once  sync.Once
	study *wayback.Study
	batch *wayback.Results
	err   error
}

func studyFixture(tb testing.TB) (*wayback.Study, *wayback.Results) {
	tb.Helper()
	studyFix.once.Do(func() {
		studyFix.study, studyFix.err = wayback.NewStudy(wayback.Config{Seed: 1, PipelineTimelines: true})
		if studyFix.err != nil {
			return
		}
		studyFix.batch, studyFix.err = studyFix.study.Run()
	})
	if studyFix.err != nil {
		tb.Fatal(studyFix.err)
	}
	return studyFix.study, studyFix.batch
}

func openStore(tb testing.TB, fs fault.FS) *eventstore.Store {
	tb.Helper()
	st, err := eventstore.Open("store", eventstore.Options{FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func openEngine(tb testing.TB, fs fault.FS, st *eventstore.Store, ckptEvery int) *timeline.Engine {
	tb.Helper()
	study, _ := studyFixture(tb)
	eng, err := study.OpenTimeline("tl", st, timeline.Config{FS: fs, CheckpointEvery: ckptEvery})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// feed appends events in `chunks` committed chunks, sealing a segment per
// chunk — except the final chunk, which is split into a committed-but-
// unsealed part and a published-but-uncommitted part so every read tier
// (checkpointed segments, fresh segments, committed tail, volatile tail) is
// populated.
func feed(tb testing.TB, st *eventstore.Store, eng *timeline.Engine, events []ids.Event, chunks int) {
	tb.Helper()
	n := len(events)
	per := (n + chunks - 1) / chunks
	for i := 0; i < n; i += per {
		end := i + per
		if end > n {
			end = n
		}
		last := end == n
		if last {
			mid := i + (end-i)/2
			appendCommit(tb, st, events[i:mid])
			if err := st.AppendBatch(events[mid:end]); err != nil {
				tb.Fatal(err)
			}
			return
		}
		appendCommit(tb, st, events[i:end])
		if _, err := eng.Seal(); err != nil {
			tb.Fatal(err)
		}
	}
}

func appendCommit(tb testing.TB, st *eventstore.Store, events []ids.Event) {
	tb.Helper()
	if err := st.AppendBatch(events); err != nil {
		tb.Fatal(err)
	}
	if err := st.Commit(nil); err != nil {
		tb.Fatal(err)
	}
}

func filterAsOf(events []ids.Event, t time.Time) []ids.Event {
	var out []ids.Event
	for _, ev := range events {
		if !ev.Time.After(t) {
			out = append(out, ev)
		}
	}
	return out
}

// cutPoints picks n cut times spanning the event set: quantiles of the
// distinct observed times (boundary-inclusive cuts), plus one before the
// first event and one after the last.
func cutPoints(events []ids.Event, n int) []time.Time {
	seen := map[int64]time.Time{}
	for _, ev := range events {
		seen[ev.Time.UnixNano()] = ev.Time
	}
	distinct := make([]time.Time, 0, len(seen))
	for _, t := range seen {
		distinct = append(distinct, t)
	}
	for i := 1; i < len(distinct); i++ {
		for j := i; j > 0 && distinct[j].Before(distinct[j-1]); j-- {
			distinct[j], distinct[j-1] = distinct[j-1], distinct[j]
		}
	}
	cuts := []time.Time{distinct[0].Add(-time.Hour)}
	for i := 0; i < n; i++ {
		cuts = append(cuts, distinct[i*(len(distinct)-1)/max(n-1, 1)])
	}
	return append(cuts, distinct[len(distinct)-1].Add(time.Hour))
}

func eventKey(ev ids.Event) string {
	return fmt.Sprintf("%d|%d|%s|%s|%s|%s|%d|%d",
		ev.Time.UnixNano(), ev.SID, ev.Src.String(), ev.Dst.String(),
		ev.CVE, ev.Msg, ev.Bytes, ev.Published.UnixNano())
}

func sameEventSet(tb testing.TB, label string, got, want []ids.Event) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	counts := map[string]int{}
	for _, ev := range want {
		counts[eventKey(ev)]++
	}
	for _, ev := range got {
		k := eventKey(ev)
		counts[k]--
		if counts[k] < 0 {
			tb.Fatalf("%s: unexpected event %s", label, k)
		}
	}
}

// checkParity asserts the as-of view at t matches the batch pipeline over
// the filtered events: timelines, stats, and Table 4 byte-for-byte.
func checkParity(tb testing.TB, study *wayback.Study, eng *timeline.Engine, events []ids.Event, t time.Time) *timeline.View {
	tb.Helper()
	v, err := eng.AsOf(t)
	if err != nil {
		tb.Fatalf("AsOf(%s): %v", t, err)
	}
	want := study.ResultsFromEvents(filterAsOf(events, t))
	got := study.ResultsFromView(v)
	if !reflect.DeepEqual(got.Timelines, want.Timelines) {
		tb.Fatalf("AsOf(%s): timelines diverge from batch pipeline (%d vs %d CVEs)",
			t, len(got.Timelines), len(want.Timelines))
	}
	if got.Stats != want.Stats {
		tb.Fatalf("AsOf(%s): stats %+v, want %+v", t, got.Stats, want.Stats)
	}
	gotT4, err := json.Marshal(got.Table4())
	if err != nil {
		tb.Fatal(err)
	}
	wantT4, err := json.Marshal(want.Table4())
	if err != nil {
		tb.Fatal(err)
	}
	if string(gotT4) != string(wantT4) {
		tb.Fatalf("AsOf(%s): Table 4 bytes diverge:\n got %s\nwant %s", t, gotT4, wantT4)
	}
	return v
}

// TestAsOfParity is the acceptance sweep: for checkpoint intervals
// {1, 3, never} and two segment sizes, every cut point must answer
// identically to a batch Study run over only the events at or before it.
func TestAsOfParity(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	configs := []struct {
		name      string
		ckptEvery int
		chunks    int
	}{
		{"ckpt1-seg9", 1, 9},
		{"ckpt3-seg9", 3, 9},
		{"nockpt-seg9", -1, 9},
		{"ckpt1-seg31", 1, 31},
		{"ckpt3-seg31", 3, 31},
		{"nockpt-seg31", -1, 31},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			fs := fault.NewSimFS(7, fault.Profile{})
			st := openStore(t, fs)
			defer st.Close()
			eng := openEngine(t, fs, st, cfg.ckptEvery)
			feed(t, st, eng, events, cfg.chunks)

			cuts := cutPoints(events, 10)
			for _, cut := range cuts {
				v := checkParity(t, study, eng, events, cut)
				if cfg.ckptEvery < 0 && v.Replayed() != len(filterAsOf(events, cut)) {
					t.Fatalf("no-checkpoint view replayed %d events, want the full %d",
						v.Replayed(), len(filterAsOf(events, cut)))
				}
			}

			// Event materialization (the figures' slow path) agrees as a
			// multiset at a middle cut and at the end.
			for _, cut := range []time.Time{cuts[len(cuts)/2], cuts[len(cuts)-1]} {
				v, err := eng.AsOf(cut)
				if err != nil {
					t.Fatal(err)
				}
				got, err := v.Events()
				if err != nil {
					t.Fatal(err)
				}
				sameEventSet(t, "Events()", got, filterAsOf(events, cut))
			}
		})
	}
}

// TestAsOfCheckpointCost pins the complexity claim: with a checkpoint per
// segment, an as-of query at the head replays only the unsealed tail, not
// the log.
func TestAsOfCheckpointCost(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)

	head := cutPoints(events, 2)
	v := checkParity(t, study, eng, events, head[len(head)-1])
	m := eng.Metrics()
	tail := len(events) - int(m.SealedEvents)
	if v.Replayed() != tail {
		t.Fatalf("head query replayed %d events; only the %d-event unsealed tail should remain beyond the newest checkpoint", v.Replayed(), tail)
	}
	if m.Segments == 0 || m.Checkpoints != m.Segments {
		t.Fatalf("expected a checkpoint per segment, got %d checkpoints over %d segments", m.Checkpoints, m.Segments)
	}
	if m.CheckpointAt.IsZero() || m.SealedBytes == 0 {
		t.Fatalf("metrics missing checkpoint age or sealed bytes: %+v", m)
	}
}

// TestViewRead checks the filtered event read against a plain filter of the
// events, in canonical order, at cuts across the log: each filter (a CVE, a
// time range, both) reads checkpointed and fresh segments and the committed
// and volatile tails, and the unfiltered read is Events.
func TestViewRead(t *testing.T) {
	_, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 2)
	feed(t, st, eng, events, 9)

	cuts := cutPoints(events, 5) // before the first event, 5 quantiles, after the last
	var cves []string
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.CVE != "" && !seen[ev.CVE] && len(cves) < 5 {
			seen[ev.CVE] = true
			cves = append(cves, ev.CVE)
		}
	}
	q1, q3 := cuts[2], cuts[4]
	filters := []timeline.Filter{{}, {CVE: "1999-99999"}, {Since: q1}, {Until: q3}, {Since: q1, Until: q3}, {Since: q3, Until: q1}}
	for _, cve := range cves {
		filters = append(filters, timeline.Filter{CVE: cve}, timeline.Filter{CVE: cve, Since: q1, Until: q3})
	}
	for _, cut := range []time.Time{cuts[3], timeline.Forever} {
		v, err := eng.AsOf(cut)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range filters {
			var want []ids.Event
			for _, ev := range filterAsOf(events, cut) {
				if (f.CVE == "" || ev.CVE == f.CVE) && (f.Since.IsZero() || !ev.Time.Before(f.Since)) &&
					(f.Until.IsZero() || ev.Time.Before(f.Until)) {
					want = append(want, ev)
				}
			}
			eventstore.SortEvents(want)
			got, err := v.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("Read(%+v) at %s", f, cut)
			if len(got) != len(want) {
				t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
			}
			for i := range got {
				if eventKey(got[i]) != eventKey(want[i]) {
					t.Fatalf("%s: event %d is %s, want %s", label, i, eventKey(got[i]), eventKey(want[i]))
				}
			}
		}
		all, err := v.Events()
		if err != nil {
			t.Fatal(err)
		}
		sameEventSet(t, "Events", all, filterAsOf(events, cut))
	}
}

// TestAsOfConcurrent runs queries against an engine that is actively
// sealing; with -race this is the engine's concurrency contract test.
func TestAsOfConcurrent(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)

	cuts := cutPoints(events, 6)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, err := eng.AsOf(cuts[(i+w)%len(cuts)])
				if err != nil {
					errs <- err
					return
				}
				_ = v.Timelines()
				_ = v.Stats()
			}
		}(w)
	}
	feed(t, st, eng, events, 23)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	checkParity(t, study, eng, events, cuts[len(cuts)-1])
}

// TestRestartRecovery reopens the engine (and store) on the same filesystem
// and expects identical answers, with the checkpoint still doing its job.
func TestRestartRecovery(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)

	cuts := cutPoints(events, 4)
	before := make([][]byte, 0, len(cuts))
	for _, cut := range cuts {
		v, err := eng.AsOf(cut)
		if err != nil {
			t.Fatal(err)
		}
		res := study.ResultsFromView(v)
		b, err := json.Marshal(res.Table4())
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}

	st.Close()
	fs.Restart()
	st = openStore(t, fs)
	defer st.Close()
	eng = openEngine(t, fs, st, 1)
	for i, cut := range cuts {
		v := checkParity(t, study, eng, mustSnapshot(t, st).Events(), cut)
		res := study.ResultsFromView(v)
		b, err := json.Marshal(res.Table4())
		if err != nil {
			t.Fatal(err)
		}
		// The pre-restart answer may cover more events (the volatile tail
		// died with the process); only cuts at or below the committed data
		// must match exactly — and all cuts must match the recovered batch
		// truth, which checkParity already enforced. For the earliest cuts
		// the two answers must agree bit-for-bit.
		if i == 0 && string(b) != string(before[i]) {
			t.Fatalf("cut %s changed across a clean restart:\n was %s\n now %s", cut, before[i], b)
		}
	}
}

// TestSealRenameFailure drives the injected-error path: a failed segment
// rename must leave no temp file, leak no handle, and leave the engine
// consistent enough to succeed on retry.
func TestSealRenameFailure(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)
	appendCommit(t, st, events)

	handles := fs.OpenHandles()
	fs.FailWith(func(op, name string) error {
		if op == "rename" && strings.Contains(name, "segment-") {
			return fmt.Errorf("injected rename failure")
		}
		return nil
	})
	if _, err := eng.Seal(); err == nil {
		t.Fatal("Seal succeeded past an injected rename failure")
	}
	fs.FailWith(nil)
	if got := fs.OpenHandles(); got != handles {
		t.Fatalf("failed seal leaked handles: %d, had %d", got, handles)
	}
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("failed seal left temp file %s", name)
		}
	}
	if sealed, err := eng.Seal(); err != nil || !sealed {
		t.Fatalf("retry after failed seal: sealed=%v err=%v", sealed, err)
	}
	cuts := cutPoints(events, 2)
	checkParity(t, study, eng, events, cuts[len(cuts)-1])
}

// TestStrandedTmpRecovery makes the rename fail AND the cleanup fail —
// the crash shape that strands a temp file — then restarts and expects
// recovery to sweep it.
func TestStrandedTmpRecovery(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	eng := openEngine(t, fs, st, 1)
	appendCommit(t, st, events)

	fs.FailWith(func(op, name string) error {
		if (op == "rename" || op == "remove") && strings.Contains(name, "segment-") {
			return fmt.Errorf("injected %s failure", op)
		}
		return nil
	})
	if _, err := eng.Seal(); err == nil {
		t.Fatal("Seal succeeded past injected failures")
	}
	fs.FailWith(nil)
	stranded := false
	for _, name := range fs.Files() {
		stranded = stranded || strings.HasSuffix(name, ".tmp")
	}
	if !stranded {
		t.Fatal("test did not strand a temp file; the recovery path is untested")
	}

	st.Close()
	fs.Restart()
	st = openStore(t, fs)
	defer st.Close()
	eng = openEngine(t, fs, st, 1)
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("recovery left stranded temp file %s", name)
		}
	}
	if sealed, err := eng.Seal(); err != nil || !sealed {
		t.Fatalf("seal after recovery: sealed=%v err=%v", sealed, err)
	}
	cuts := cutPoints(events, 2)
	checkParity(t, study, eng, mustSnapshot(t, st).Events(), cuts[len(cuts)-1])
}

// TestCheckpointENOSPC fails checkpoint writes with ENOSPC: the segment must
// survive, queries must fall back to the previous checkpoint, and the next
// seal must retry the checkpoint.
func TestCheckpointENOSPC(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)

	third := len(events) / 3
	appendCommit(t, st, events[:third])
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Checkpoints != 1 {
		t.Fatalf("expected 1 checkpoint, have %d", m.Checkpoints)
	}

	fs.FailWith(func(op, name string) error {
		if op == "write" && strings.Contains(name, "ckpt-") {
			return fmt.Errorf("injected ENOSPC")
		}
		return nil
	})
	appendCommit(t, st, events[third:2*third])
	sealed, err := eng.Seal()
	if err == nil || !sealed {
		t.Fatalf("want sealed segment with checkpoint error, got sealed=%v err=%v", sealed, err)
	}
	fs.FailWith(nil)
	m := eng.Metrics()
	if m.Segments != 2 || m.Checkpoints != 1 {
		t.Fatalf("after ENOSPC: %d segments, %d checkpoints; want 2 and 1", m.Segments, m.Checkpoints)
	}
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("failed checkpoint left temp file %s", name)
		}
	}
	// Queries fall back to checkpoint 0 and stay correct.
	cuts := cutPoints(events[:2*third], 2)
	checkParity(t, study, eng, events[:2*third], cuts[len(cuts)-1])

	// Restart: recovery must come up on the surviving checkpoint.
	st.Close()
	fs.Restart()
	st = openStore(t, fs)
	t.Cleanup(func() { st.Close() })
	eng = openEngine(t, fs, st, 1)
	checkParity(t, study, eng, mustSnapshot(t, st).Events(), cuts[len(cuts)-1])

	// The next seal retries and the checkpoint ladder catches up.
	appendCommit(t, st, events[2*third:])
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Checkpoints != 2 {
		t.Fatalf("checkpoint did not catch up after ENOSPC: %d", m.Checkpoints)
	}
}

// TestCorruptCheckpointFallback corrupts the newest checkpoint on disk;
// recovery must discard it and answer from the older one.
func TestCorruptCheckpointFallback(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 6)

	var newest string
	for _, name := range fs.Files() {
		if strings.Contains(name, "ckpt-") {
			newest = name
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint written")
	}
	if err := fs.WriteFile(newest, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	st.Close()
	fs.Restart()
	st = openStore(t, fs)
	defer st.Close()
	eng = openEngine(t, fs, st, 1)
	for _, name := range fs.Files() {
		if name == newest {
			t.Fatalf("recovery kept the corrupt checkpoint %s", name)
		}
	}
	cuts := cutPoints(events, 3)
	checkParity(t, study, eng, mustSnapshot(t, st).Events(), cuts[len(cuts)-1])
}

// TestCrashRestartSweep drives random crash points through the whole stack
// — store appends, commits, seals, checkpoints — and at every recovery
// expects the as-of path to agree with the batch pipeline over whatever the
// store recovered.
func TestCrashRestartSweep(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fs := fault.NewSimFS(seed, fault.Profile{CrashEvery: 60})
			var st *eventstore.Store
			var eng *timeline.Engine
			// reopen recovers both processes, retrying through crash points
			// that fire during recovery itself (recovery is I/O too).
			reopen := func() {
				for attempt := 0; ; attempt++ {
					if attempt > 500 {
						t.Fatal("recovery never completed without crashing")
					}
					if fs.Crashed() {
						fs.Restart()
					}
					var err error
					if st, err = eventstore.Open("store", eventstore.Options{FS: fs}); err != nil {
						continue
					}
					if eng, err = study.OpenTimeline("tl", st, timeline.Config{FS: fs, CheckpointEvery: 1}); err != nil {
						continue
					}
					if fs.Crashed() {
						continue
					}
					for _, name := range fs.Files() {
						if strings.HasSuffix(name, ".tmp") {
							t.Fatalf("recovery left %s", name)
						}
					}
					return
				}
			}
			reopen()

			per := len(events)/17 + 1
			for i := 0; i < len(events); {
				end := i + per
				if end > len(events) {
					end = len(events)
				}
				if err := st.AppendBatch(events[i:end]); err != nil {
					reopen() // crashed mid-append: the batch was not acked, retry it
					continue
				}
				if err := st.Commit(nil); err != nil {
					reopen()
					continue
				}
				if _, err := eng.Seal(); err != nil {
					reopen()
					continue
				}
				i = end
			}
			if fs.Crashed() {
				reopen()
			}

			// Ground truth is what the store recovered; the timeline must
			// agree with the batch pipeline over it at every cut. A crash
			// point can fire mid-verification too — power-cycle and retry
			// the cut, which must then hold over the re-recovered state.
			for attempt := 0; ; attempt++ {
				if attempt > 500 {
					t.Fatal("verification never completed without crashing")
				}
				sn, err := st.Snapshot()
				if err != nil {
					// Released history is read back from the store's log,
					// where the crash point can fire too.
					if !fs.Crashed() {
						t.Fatalf("snapshot failed without a crash: %v", err)
					}
					reopen()
					continue
				}
				recovered := sn.Events()
				if len(recovered) == 0 {
					t.Fatal("store recovered no events; the sweep exercised nothing")
				}
				ok := true
				for _, cut := range cutPoints(recovered, 4) {
					v, err := eng.AsOf(cut)
					if err != nil {
						ok = false
						break
					}
					want := study.ResultsFromEvents(filterAsOf(recovered, cut))
					got := study.ResultsFromView(v)
					if !reflect.DeepEqual(got.Timelines, want.Timelines) || got.Stats != want.Stats {
						t.Fatalf("AsOf(%s) diverges over recovered events", cut)
					}
				}
				if ok {
					break
				}
				if !fs.Crashed() {
					t.Fatal("as-of query failed without a crash")
				}
				reopen()
			}
			st.Close()
			if fs.Crashed() { // Close may have tripped one last crash point
				fs.Restart()
			}
			if got := fs.OpenHandles(); got != 0 {
				t.Fatalf("%d handles leaked", got)
			}
		})
	}
}

// TestDiffTimelines exercises the lifecycle diff between two cuts.
func TestDiffTimelines(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)

	cuts := cutPoints(events, 4)
	early, late := cuts[1], cuts[len(cuts)-1]
	vFrom, err := eng.AsOf(early)
	if err != nil {
		t.Fatal(err)
	}
	vTo, err := eng.AsOf(late)
	if err != nil {
		t.Fatal(err)
	}
	diff := timeline.DiffTimelines(vFrom.Timelines(), vTo.Timelines())
	if len(diff) == 0 {
		t.Fatal("no differences between an early and a late cut")
	}
	fromByCVE := map[string]bool{}
	for _, tl := range vFrom.Timelines() {
		fromByCVE[tl.CVE] = true
	}
	for _, d := range diff {
		if d.New == fromByCVE[d.CVE] {
			t.Fatalf("%s: New=%v but present-at-from=%v", d.CVE, d.New, fromByCVE[d.CVE])
		}
		if d.EventsTo < d.EventsFrom {
			t.Fatalf("%s: event count went backwards (%d -> %d)", d.CVE, d.EventsFrom, d.EventsTo)
		}
	}
	// Identical inputs diff to nothing.
	if d := timeline.DiffTimelines(vTo.Timelines(), vTo.Timelines()); len(d) != 0 {
		t.Fatalf("self-diff returned %d entries", len(d))
	}
	_ = study
}

// TestSkillSeries checks the as-of skill sweep is monotone in coverage and
// ends at the batch answer.
func TestSkillSeries(t *testing.T) {
	study, batch := studyFixture(t)
	events := batch.Events
	fs := fault.NewSimFS(7, fault.Profile{})
	st := openStore(t, fs)
	defer st.Close()
	eng := openEngine(t, fs, st, 1)
	feed(t, st, eng, events, 9)

	cuts := cutPoints(events, 2)
	first, last := cuts[0], cuts[len(cuts)-1]
	step := last.Sub(first) / 8
	series, err := eng.SkillSeries(first, last, step)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 8 {
		t.Fatalf("series has %d points", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Events < series[i-1].Events || series[i].CVEs < series[i-1].CVEs {
			t.Fatalf("coverage went backwards at point %d: %+v -> %+v", i, series[i-1], series[i])
		}
	}
	want := study.ResultsFromEvents(filterAsOf(events, last))
	lastPoint := series[len(series)-1]
	if got := want.MeanSkill(); lastPoint.MeanSkill != got {
		t.Fatalf("final skill %v, batch says %v", lastPoint.MeanSkill, got)
	}
	if _, err := eng.SkillSeries(last, first, step); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := eng.SkillSeries(first, last, 0); err == nil {
		t.Fatal("zero step accepted")
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
