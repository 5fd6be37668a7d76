package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/timeline"
	"repro/wayback"
)

type asofFixture struct {
	*fixture
	est *eventstore.Store
	eng *timeline.Engine
	cut time.Time // median event time: a mid-study as-of instant
	end time.Time // past the last event: an as-of instant covering everything
}

func newAsofFixture(t *testing.T) *asofFixture {
	t.Helper()
	return newAsofFixtureWith(t, timeline.Config{CheckpointEvery: 1})
}

// newAsofFixtureWith is newAsofFixture with the timeline engine's settings
// given (Dir and Store are filled in).
func newAsofFixtureWith(t *testing.T, tcfg timeline.Config) *asofFixture {
	t.Helper()
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	store, err := wayback.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.AppendBatch(batch.Events); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(nil); err != nil {
		t.Fatal(err)
	}
	eng, err := study.OpenTimeline(t.TempDir(), store, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Study: study, Store: store, Timeline: eng})
	if err != nil {
		t.Fatal(err)
	}

	times := make([]time.Time, len(batch.Events))
	for i := range batch.Events {
		times[i] = batch.Events[i].Time
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	return &asofFixture{
		fixture: &fixture{study: study, batch: batch, srv: srv, store: store},
		est:     store,
		eng:     eng,
		cut:     times[len(times)/2],
		end:     times[len(times)-1].Add(time.Hour),
	}
}

// getIfNoneMatch issues a conditional GET with the given validator.
func (f *asofFixture) getIfNoneMatch(t *testing.T, path, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, req)
	return rec
}

func eventsUpTo(events []ids.Event, t time.Time) []ids.Event {
	var out []ids.Event
	for _, ev := range events {
		if !ev.Time.After(t) {
			out = append(out, ev)
		}
	}
	return out
}

// TestAsOfEndpoints: ?asof= answers from tables and figures must equal the
// batch pipeline run over only the events at or before the cut.
func TestAsOfEndpoints(t *testing.T) {
	f := newAsofFixture(t)
	mid := f.study.ResultsFromEvents(eventsUpTo(f.batch.Events, f.cut))

	q := "?asof=" + f.cut.UTC().Format(time.RFC3339Nano)
	if got, want := f.getOK(t, "/v1/tables/4"+q).Body.String(), mid.Table4().String(); got != want {
		t.Errorf("as-of Table 4 differs from the batch run over the cut events:\n%s", got)
	}
	wantFig, _, err := histogramCSV("figure3", "days-into-study", mid.Figure3())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.getOK(t, "/v1/figures/3"+q).Body.String(); got != string(wantFig) {
		t.Errorf("as-of Figure 3 differs from the batch run over the cut events:\n%s", got)
	}

	// An as-of instant past every event answers exactly like the live view.
	live := f.getOK(t, "/v1/tables/4").Body.String()
	endQ := "?asof=" + f.end.UTC().Format(time.RFC3339Nano)
	if got := f.getOK(t, "/v1/tables/4"+endQ).Body.String(); got != live {
		t.Errorf("as-of past the last event differs from the live table:\n%s", got)
	}

	// Date-only form parses; malformed dates are a 400.
	f.getOK(t, "/v1/tables/4?asof="+f.cut.UTC().Format("2006-01-02"))
	if rec := f.get(t, "/v1/tables/4?asof=yesterday"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad asof gave %d, want 400", rec.Code)
	}
}

// TestAsOfDisabled: without a timeline engine, ?asof= and the diff/skill
// endpoints answer 404, and plain queries still work.
func TestAsOfDisabled(t *testing.T) {
	f := newFixture(t)
	f.getOK(t, "/v1/tables/4")
	for _, path := range []string{
		"/v1/tables/4?asof=2022-01-01",
		"/v1/diff?from=2022-01-01&to=2022-06-01",
		"/v1/skill?from=2022-01-01&to=2022-06-01",
	} {
		if rec := f.get(t, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without a timeline gave %d, want 404", path, rec.Code)
		}
	}
}

// TestETag: responses carry a strong ETag; If-None-Match answers 304 with no
// body; the tag moves with the generation and with the as-of date.
func TestETag(t *testing.T) {
	f := newAsofFixture(t)
	rec := f.getOK(t, "/v1/tables/4")
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on a table response")
	}

	rec2 := f.getIfNoneMatch(t, "/v1/tables/4", etag)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match with the current tag gave %d, want 304", rec2.Code)
	}
	if rec2.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", rec2.Body.Len())
	}
	if got := rec2.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}

	// A different as-of date is a different resource: different tag, no 304.
	q := "?asof=" + f.cut.UTC().Format(time.RFC3339Nano)
	asofTag := f.getOK(t, "/v1/tables/4"+q).Header().Get("ETag")
	if asofTag == "" || asofTag == etag {
		t.Fatalf("as-of ETag %q should differ from the live tag %q", asofTag, etag)
	}
	if rec := f.getIfNoneMatch(t, "/v1/tables/4"+q, etag); rec.Code == http.StatusNotModified {
		t.Error("live ETag validated an as-of response")
	}

	// New events bump the generation; the old tag stops validating.
	extra := f.batch.Events[:1]
	if err := f.est.AppendBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := f.est.Commit(nil); err != nil {
		t.Fatal(err)
	}
	rec3 := f.getIfNoneMatch(t, "/v1/tables/4", etag)
	if rec3.Code != http.StatusOK {
		t.Fatalf("stale ETag after an append gave %d, want 200", rec3.Code)
	}
	if got := rec3.Header().Get("ETag"); got == etag {
		t.Error("ETag did not move with the store generation")
	}
}

// TestDiffEndpoint: /v1/diff reports per-CVE lifecycle movement between two
// cuts, and validates its parameters.
func TestDiffEndpoint(t *testing.T) {
	f := newAsofFixture(t)
	from := f.cut.UTC().Format(time.RFC3339Nano)
	to := f.end.UTC().Format(time.RFC3339Nano)
	rec := f.getOK(t, "/v1/diff?from="+from+"&to="+to)
	var out struct {
		Generation uint64             `json:"generation"`
		CVEs       []timeline.CVEDiff `json:"cves"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.CVEs) == 0 {
		t.Fatal("diff across half the study reported no changes")
	}
	for _, d := range out.CVEs {
		if d.EventsTo < d.EventsFrom {
			t.Errorf("CVE-%s: event count shrank %d -> %d", d.CVE, d.EventsFrom, d.EventsTo)
		}
		if d.New && d.EventsFrom != 0 {
			t.Errorf("CVE-%s: marked new but had %d events at the from cut", d.CVE, d.EventsFrom)
		}
	}

	// A self-diff is empty, not an error.
	rec = f.getOK(t, "/v1/diff?from="+from+"&to="+from)
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.CVEs) != 0 {
		t.Errorf("self-diff reported %d changed CVEs", len(out.CVEs))
	}

	for _, path := range []string{
		"/v1/diff?to=" + to,                   // missing from
		"/v1/diff?from=" + from,               // missing to
		"/v1/diff?from=" + to + "&to=" + from, // inverted
		"/v1/diff?from=nope&to=" + to,         // malformed
	} {
		if rec := f.get(t, path); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s gave %d, want 400", path, rec.Code)
		}
	}
}

// TestSkillEndpoint: /v1/skill samples the coordination-skill series; event
// coverage is monotone in time.
func TestSkillEndpoint(t *testing.T) {
	f := newAsofFixture(t)
	from := f.cut.UTC().Format(time.RFC3339Nano)
	to := f.end.UTC().Format(time.RFC3339Nano)
	rec := f.getOK(t, "/v1/skill?from="+from+"&to="+to+"&step_days=30")
	var out struct {
		StepDays int                   `json:"step_days"`
		Points   []timeline.SkillPoint `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.StepDays != 30 {
		t.Errorf("step_days echoed as %d", out.StepDays)
	}
	if len(out.Points) < 2 {
		t.Fatalf("skill series has %d points, want >= 2", len(out.Points))
	}
	for i := 1; i < len(out.Points); i++ {
		if out.Points[i].Events < out.Points[i-1].Events {
			t.Errorf("event coverage shrank between samples %d and %d", i-1, i)
		}
	}
	if rec := f.get(t, "/v1/skill?from="+from+"&to="+to+"&step_days=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("step_days=0 gave %d, want 400", rec.Code)
	}
}

// TestTimelineMetrics: the timeline gauges appear exactly when an engine is
// configured.
func TestTimelineMetrics(t *testing.T) {
	f := newAsofFixture(t)
	body := f.getOK(t, "/metrics").Body.String()
	for _, want := range []string{
		"waybackd_timeline_segments 1",
		"waybackd_timeline_sealed_bytes",
		"waybackd_timeline_sealed_events",
		"waybackd_timeline_checkpoints 1",
		"waybackd_timeline_checkpoint_age_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "timeline_checkpoint_age_seconds -1") {
		t.Error("checkpoint age reported as none despite a checkpoint")
	}

	plain := newFixture(t)
	if body := plain.getOK(t, "/metrics").Body.String(); strings.Contains(body, "waybackd_timeline_") {
		t.Error("timeline gauges present without an engine")
	}
}

// gatedFS is the real filesystem, except that while a gate is armed every
// open of a sealed segment reports itself on arrived and then blocks until
// the gate is released: a disk slow enough to hold as-of replays mid-flight.
type gatedFS struct {
	fault.FS
	arrived chan string
	opens   atomic.Int32

	mu   sync.Mutex
	gate chan struct{}
}

// newGatedFS sizes arrived past every segment open a test makes, so an open
// never blocks on reporting itself.
func newGatedFS() *gatedFS { return &gatedFS{FS: fault.OS, arrived: make(chan string, 64)} }

// arm makes segment opens block until the returned release is called.
func (g *gatedFS) arm() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return sync.OnceFunc(func() { close(gate) })
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil && strings.HasSuffix(name, ".seg") {
		g.opens.Add(1)
		g.arrived <- name
		<-gate
	}
	return g.FS.OpenFile(name, flag, perm)
}

// awaitOpen waits for one segment open to arrive at the gate.
func (g *gatedFS) awaitOpen() bool {
	select {
	case <-g.arrived:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// TestAsOfMissesReplayConcurrently: cache-missing ?asof= requests replay
// without holding the server's as-of lock. Misses at two instants must
// both reach the segment read at once, and eight concurrent misses at one
// instant must share a single replay.
func TestAsOfMissesReplayConcurrently(t *testing.T) {
	fs := newGatedFS()
	f := newAsofFixtureWith(t, timeline.Config{FS: fs, CheckpointEvery: -1})
	if n := f.eng.SegmentCount(); n != 1 {
		t.Fatalf("fixture sealed %d segments, want 1 (one replay = one segment open)", n)
	}
	get := func(wg *sync.WaitGroup, at time.Time, codes chan<- int) {
		defer wg.Done()
		codes <- f.get(t, "/v1/tables/4?asof="+at.UTC().Format(time.RFC3339Nano)).Code
	}
	checkCodes := func(codes chan int) {
		close(codes)
		for code := range codes {
			if code != http.StatusOK {
				t.Errorf("as-of request gave %d, want 200", code)
			}
		}
	}

	release := fs.arm()
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for _, at := range []time.Time{f.cut, f.cut.Add(-24 * time.Hour)} {
		wg.Add(1)
		go get(&wg, at, codes)
	}
	for i := 0; i < 2; i++ {
		if !fs.awaitOpen() {
			release()
			wg.Wait()
			t.Fatalf("only %d of 2 misses at different instants reached the segment read: replays are serialized", i)
		}
	}
	release()
	wg.Wait()
	checkCodes(codes)

	fs.opens.Store(0)
	release = fs.arm()
	at := f.cut.Add(-48 * time.Hour)
	codes = make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go get(&wg, at, codes)
	}
	if !fs.awaitOpen() {
		release()
		wg.Wait()
		t.Fatal("no miss reached the segment read")
	}
	// Give the other seven time to reach the held replay. The wait cannot
	// fail a correct server, which replays once however late a miss comes:
	// a late miss finds the replay in flight or its result cached. It only
	// gives a server that does not coalesce the time to open the segment
	// again.
	time.Sleep(50 * time.Millisecond)
	release()
	wg.Wait()
	checkCodes(codes)
	if n := fs.opens.Load(); n != 1 {
		t.Errorf("eight concurrent misses at one instant opened the segment %d times, want 1 replay", n)
	}
}

// TestFigure2Body: /v1/figures/2 is rendered once per server yet stays
// byte-identical to a freshly built Results' Figure 2 before an append,
// after one and at an as-of instant, and its ETag still moves with the
// store generation.
func TestFigure2Body(t *testing.T) {
	f := newAsofFixture(t)
	fresh := func() string {
		t.Helper()
		res, _ := f.study.ResultsFromStore(f.est)
		body, _, err := seriesCSV(res.Figure2()...)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	asof := "/v1/figures/2?asof=" + f.cut.UTC().Format(time.RFC3339Nano)
	check := func(when string) string {
		t.Helper()
		want := fresh()
		rec := f.getOK(t, "/v1/figures/2")
		if got := rec.Body.String(); got != want {
			t.Errorf("%s: /v1/figures/2 differs from a fresh Results' Figure 2", when)
		}
		if got := f.getOK(t, asof).Body.String(); got != want {
			t.Errorf("%s: /v1/figures/2?asof= differs from a fresh Results' Figure 2", when)
		}
		return rec.Header().Get("ETag")
	}

	before := check("before an append")
	if err := f.est.AppendBatch(f.batch.Events[:1]); err != nil {
		t.Fatal(err)
	}
	if err := f.est.Commit(nil); err != nil {
		t.Fatal(err)
	}
	after := check("after an append")
	if before == "" || before == after {
		t.Errorf("Figure 2's ETag did not move with the generation: %q then %q", before, after)
	}
}

// TestReleasedStoreMetricsAndReadErrors: with every event sealed, the store
// holds none of them in memory, which /metrics reports beside the total; a
// read of the released history that fails answers 500, never a short body.
func TestReleasedStoreMetricsAndReadErrors(t *testing.T) {
	f := newAsofFixture(t)
	body := f.getOK(t, "/metrics").Body.String()
	for _, want := range []string{
		fmt.Sprintf("waybackd_store_events %d\n", len(f.batch.Events)),
		"waybackd_store_resident_events 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Closing the store closes the shard logs the released events live in.
	if err := f.est.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/events?limit=1", "/v1/tables/4"} {
		if rec := f.get(t, path); rec.Code != http.StatusInternalServerError {
			t.Errorf("%s over an unreadable log: %d %q, want 500", path, rec.Code, rec.Body.String())
		}
	}
}
