package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fmt"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/wayback"
)

type fixture struct {
	study *wayback.Study
	batch *wayback.Results
	srv   *Server
	store interface {
		AppendBatch([]ids.Event) error
	}
}

func newFixture(t *testing.T) *fixture {
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
	srv, err := New(Config{Study: study, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{study: study, batch: batch, srv: srv, store: store}
}

func (f *fixture) get(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, req)
	return rec
}

func (f *fixture) getOK(t *testing.T, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := f.get(t, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

func TestHealthz(t *testing.T) {
	f := newFixture(t)
	got := f.getOK(t, "/healthz").Body.String()
	if !strings.HasPrefix(got, "ok\n") {
		t.Fatalf("healthz said %q", got)
	}
	for _, want := range []string{"ingest_lag", "fleet_lag", "store_age_seconds"} {
		if !strings.Contains(got, want) {
			t.Errorf("healthz missing %q:\n%s", want, got)
		}
	}
}

// TestTablesMatchBatchRun: every table endpoint returns exactly what the
// batch study renders for the same events.
func TestTablesMatchBatchRun(t *testing.T) {
	f := newFixture(t)
	want := map[string]string{
		"1": f.batch.Table1().String(),
		"2": f.batch.Table2().String(),
		"3": f.batch.Table3(),
		"4": f.batch.Table4().String(),
		"5": f.batch.Table5().String(),
		"6": f.batch.Table6().String(),
		"E": f.batch.AppendixE().String(),
	}
	for n, text := range want {
		rec := f.getOK(t, "/v1/tables/"+n)
		if rec.Body.String() != text {
			t.Errorf("table %s differs from batch run:\n%s", n, rec.Body.String())
		}
	}
	if rec := f.get(t, "/v1/tables/9"); rec.Code != http.StatusNotFound {
		t.Errorf("table 9 gave %d, want 404", rec.Code)
	}
}

// TestGenerationCache: unchanged store means cache hits; an append
// invalidates exactly by bumping the generation.
func TestGenerationCache(t *testing.T) {
	f := newFixture(t)
	first := f.getOK(t, "/v1/tables/4")
	hits0, misses0 := f.srv.CacheStats()
	if misses0 == 0 {
		t.Fatal("first request was not a miss")
	}
	second := f.getOK(t, "/v1/tables/4")
	hits1, misses1 := f.srv.CacheStats()
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Fatalf("second request hits %d->%d misses %d->%d", hits0, hits1, misses0, misses1)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached body differs")
	}
	if first.Header().Get("X-Store-Generation") == "" {
		t.Fatal("no generation header")
	}
	// A CVE-less event bumps the generation without changing Table 4.
	if err := f.store.AppendBatch([]ids.Event{{SID: 999999, Msg: "unattributed"}}); err != nil {
		t.Fatal(err)
	}
	third := f.getOK(t, "/v1/tables/4")
	_, misses2 := f.srv.CacheStats()
	if misses2 != misses0+1 {
		t.Fatalf("append did not invalidate: misses %d -> %d", misses0, misses2)
	}
	if third.Body.String() != first.Body.String() {
		t.Fatal("unattributed event changed Table 4")
	}
	if third.Header().Get("X-Store-Generation") == first.Header().Get("X-Store-Generation") {
		t.Fatal("generation header did not advance")
	}
}

func TestLifecycleEndpoint(t *testing.T) {
	f := newFixture(t)
	// Accepts the canonical "CVE-" prefix and the bare form.
	for _, path := range []string{"/v1/lifecycles/CVE-2021-44228", "/v1/lifecycles/2021-44228"} {
		rec := f.getOK(t, path)
		var got struct {
			CVE        string            `json:"cve"`
			EventCount int               `json:"event_count"`
			Events     map[string]string `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.CVE != "CVE-2021-44228" || got.EventCount == 0 {
			t.Fatalf("%s: %+v", path, got)
		}
		for _, letter := range []string{"A", "F"} {
			if got.Events[letter] == "" {
				t.Errorf("%s: missing %s event: %v", path, letter, got.Events)
			}
		}
	}
	if rec := f.get(t, "/v1/lifecycles/CVE-1999-0001"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown CVE gave %d, want 404", rec.Code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	f := newFixture(t)
	var all struct {
		Generation uint64 `json:"generation"`
		Total      int    `json:"total"`
		Events     []struct {
			CVE string `json:"cve"`
			Src string `json:"src"`
		} `json:"events"`
	}
	rec := f.getOK(t, "/v1/events?limit=10")
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if all.Total != len(f.batch.Events) {
		t.Fatalf("total %d, want %d", all.Total, len(f.batch.Events))
	}
	if len(all.Events) != 10 || all.Generation == 0 {
		t.Fatalf("limit ignored: %d events, generation %d", len(all.Events), all.Generation)
	}
	if !strings.Contains(all.Events[0].Src, ":") {
		t.Fatalf("src not addr:port: %q", all.Events[0].Src)
	}

	rec = f.getOK(t, "/v1/events?cve=CVE-2021-44228")
	var filtered struct {
		Total  int `json:"total"`
		Events []struct {
			CVE string `json:"cve"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if filtered.Total == 0 || filtered.Total >= all.Total {
		t.Fatalf("cve filter total %d (all %d)", filtered.Total, all.Total)
	}
	for _, ev := range filtered.Events {
		if ev.CVE != "2021-44228" {
			t.Fatalf("filter leaked %q", ev.CVE)
		}
	}
	if rec := f.get(t, "/v1/events?since=notatime"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad since gave %d", rec.Code)
	}
}

func TestFigureEndpoints(t *testing.T) {
	f := newFixture(t)
	for _, id := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "18"} {
		rec := f.getOK(t, "/v1/figures/"+id)
		body := rec.Body.String()
		if body == "" {
			t.Errorf("figure %s: empty body", id)
			continue
		}
		header := strings.SplitN(body, "\n", 2)[0]
		if !strings.Contains(header, ",") {
			t.Errorf("figure %s: first line not CSV: %q", id, header)
		}
	}
	if rec := f.get(t, "/v1/figures/19"); rec.Code != http.StatusNotFound {
		t.Errorf("figure 19 gave %d, want 404", rec.Code)
	}
	if rec := f.get(t, "/v1/figures/x"); rec.Code != http.StatusNotFound {
		t.Errorf("figure x gave %d, want 404", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	body := f.getOK(t, "/metrics").Body.String()
	for _, want := range []string{"waybackd_store_events ", "waybackd_store_generation ", "waybackd_cache_hits "} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Without a timeline nothing is released: every event is resident.
	n := len(f.batch.Events)
	for _, want := range []string{fmt.Sprintf("waybackd_store_events %d\n", n), fmt.Sprintf("waybackd_store_resident_events %d\n", n)} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "waybackd_ingest_") {
		t.Error("ingest metrics present without a pipeline")
	}
}

// fakeFleet implements FleetSource for tests.
type fakeFleet struct {
	sensors []fleet.SensorStatus
}

func (f *fakeFleet) Sensors() []fleet.SensorStatus    { return f.sensors }
func (f *fakeFleet) Totals() (uint64, uint64, uint64) { return 12, 3400, 2 }

func TestFleetEndpoint(t *testing.T) {
	f := newFixture(t)
	// Without a fleet listener the endpoint is 404.
	if rec := f.get(t, "/v1/fleet"); rec.Code != http.StatusNotFound {
		t.Fatalf("fleet without listener gave %d", rec.Code)
	}

	ff := &fakeFleet{sensors: []fleet.SensorStatus{
		{ID: "s0", Shard: 0, Shards: 3, Codec: "snappy", Connected: true, Watermark: 40, Events: 1000},
		{ID: "s1", Shard: 1, Shards: 3, Codec: "snappy", Connected: false, Watermark: 38, Events: 900, SpooledBatches: 4, IngestLag: 2},
	}}
	srv, err := New(Config{Study: f.study, Store: f.store.(*eventstore.Store), Fleet: ff})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/fleet", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet gave %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Sensors    []fleet.SensorStatus `json:"sensors"`
		Batches    uint64               `json:"batches"`
		Events     uint64               `json:"events"`
		DupBatches uint64               `json:"dup_batches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Sensors) != 2 || got.Batches != 12 || got.Events != 3400 || got.DupBatches != 2 {
		t.Fatalf("fleet body %+v", got)
	}
	if got.Sensors[1].SpooledBatches != 4 {
		t.Fatalf("sensor detail lost: %+v", got.Sensors[1])
	}

	// Fleet gauges and healthz fleet_lag come from the same source.
	req = httptest.NewRequest("GET", "/metrics", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	metrics := rec.Body.String()
	for _, want := range []string{
		"waybackd_fleet_sensors 2",
		"waybackd_fleet_dup_batches 2",
		`waybackd_fleet_sensor_connected{sensor="s0"} 1`,
		`waybackd_fleet_sensor_connected{sensor="s1"} 0`,
		`waybackd_fleet_sensor_watermark{sensor="s0"} 40`,
		`waybackd_fleet_sensor_spooled_batches{sensor="s1"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "fleet_lag 6") { // 4 spooled + 2 ingest lag
		t.Errorf("healthz fleet_lag wrong:\n%s", rec.Body.String())
	}
}

// commitFleet is a fakeFleet that also reports group-commit stats, like the
// concrete *fleet.Listener.
type commitFleet struct{ fakeFleet }

func (f *commitFleet) CommitStats() fleet.CommitStats {
	return fleet.CommitStats{
		Commits: 7, CoalescedBatches: 21, LastBatches: 5,
		LastFsyncNanos: 2_500_000, QueueDepth: 3,
	}
}

func TestMetricsCommitGauges(t *testing.T) {
	f := newFixture(t)

	// A source without CommitStats (the minimal interface) emits no commit
	// gauges rather than zeros that would look like a stalled committer.
	srv, err := New(Config{Study: f.study, Store: f.store.(*eventstore.Store), Fleet: &fakeFleet{}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), "fleet_commits_total") {
		t.Fatalf("commit gauges emitted without a CommitStats source:\n%s", rec.Body.String())
	}

	srv, err = New(Config{Study: f.study, Store: f.store.(*eventstore.Store), Fleet: &commitFleet{}})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, want := range []string{
		"waybackd_fleet_commits_total 7",
		"waybackd_fleet_commit_coalesced_batches_total 21",
		"waybackd_fleet_commit_queue_depth 3",
		"waybackd_fleet_commit_last_batches 5",
		"waybackd_fleet_commit_last_fsync_seconds 0.0025",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestHealthzStaleness(t *testing.T) {
	f := newFixture(t)
	srv, err := New(Config{Study: f.study, Store: f.store.(*eventstore.Store), StaleAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	serveHealthz := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	// Fresh server: the store was appended to during fixture setup, but the
	// clock starts at server creation, so it is healthy now.
	if rec := serveHealthz(); rec.Code != http.StatusOK {
		t.Fatalf("fresh server stale: %d %s", rec.Code, rec.Body.String())
	}
	// Past the window with no new events: degraded.
	time.Sleep(80 * time.Millisecond)
	rec := serveHealthz()
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "stale\n") {
		t.Fatalf("stale server gave %d %q", rec.Code, rec.Body.String())
	}
	// A new append revives it.
	if err := f.store.AppendBatch([]ids.Event{{SID: 1, Msg: "ping"}}); err != nil {
		t.Fatal(err)
	}
	if rec := serveHealthz(); rec.Code != http.StatusOK {
		t.Fatalf("append did not revive healthz: %d %s", rec.Code, rec.Body.String())
	}
}

func TestMetricsShardGauges(t *testing.T) {
	f := newFixture(t)
	body := f.getOK(t, "/metrics").Body.String()
	if !strings.Contains(body, `waybackd_store_shard_records{shard="0"} `) {
		t.Fatalf("metrics missing per-shard records:\n%s", body)
	}
	if !strings.Contains(body, `waybackd_store_shard_last_append_seconds{shard="0"} `) {
		t.Fatal("metrics missing per-shard last append")
	}
	// Shard gauges must sum to the store total.
	var total int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "waybackd_store_shard_records{") {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
				t.Fatalf("bad gauge line %q", line)
			}
			total += n
		}
	}
	if total != len(f.batch.Events) {
		t.Fatalf("shard records sum to %d, store holds %d", total, len(f.batch.Events))
	}
}

// TestNewHTTPServerLimits: the constructor every binary's HTTP server goes
// through sets a header-read timeout, an idle timeout and a header cap, and
// no write timeout that would cut long as-of and diff replays.
func TestNewHTTPServerLimits(t *testing.T) {
	srv := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("limits not set: ReadHeaderTimeout %v, IdleTimeout %v, MaxHeaderBytes %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut long replays", srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("address or handler dropped: %q %v", srv.Addr, srv.Handler)
	}
}
