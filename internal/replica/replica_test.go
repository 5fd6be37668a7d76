package replica_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/timeline"
	"repro/wayback"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getBody(t *testing.T, srv *serve.Server, path string) string {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// testFeedConfig trims the production pacing so catch-up is test-fast.
func testFeedConfig(store *eventstore.Store, addr string) replica.FeedConfig {
	return replica.FeedConfig{
		Addr: addr, Store: store,
		Poll: 10 * time.Millisecond, Heartbeat: 100 * time.Millisecond,
	}
}

// TestReplicaEndToEnd: a replica catches up from the coordinator's committed
// log, serves byte-identical analyses, follows appends and amendments, and —
// after a full restart from its own store — resumes with only the delta
// shipped, never a refetch.
func TestReplicaEndToEnd(t *testing.T) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Events
	half := len(events) / 2

	coordDir, repDir := t.TempDir(), t.TempDir()
	coord, err := wayback.OpenStore(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.AppendBatch(events[:half]); err != nil {
		t.Fatal(err)
	}

	feed, err := replica.ListenFeed(testFeedConfig(coord, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	repStore, err := wayback.OpenStore(repDir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Start(replica.Config{
		Addr: feed.Addr(), Store: repStore, ID: "r1",
	})
	if err != nil {
		t.Fatal(err)
	}

	caughtUp := func(wantEvents, wantAmends uint64) func() bool {
		return func() bool {
			st := rep.Status()
			return st.Rounds > 0 && st.LocalEvents == wantEvents && st.LocalAmends == wantAmends &&
				st.LagEvents == 0 && st.LagAmends == 0
		}
	}
	waitFor(t, "initial catch-up", caughtUp(uint64(half), 0))

	coordSrv, err := serve.New(withTimeline(t, study, serve.Config{Study: study, Store: coord, ReplicaFeed: feed}))
	if err != nil {
		t.Fatal(err)
	}
	repSrv, err := serve.New(withTimeline(t, study, serve.Config{Study: study, Store: repStore, Replica: rep}))
	if err != nil {
		t.Fatal(err)
	}
	assertParity := func(step string, repSrv *serve.Server) {
		t.Helper()
		for _, p := range []string{"/v1/tables/4", "/v1/tables/5", "/v1/figures/7"} {
			if got, want := getBody(t, repSrv, p), getBody(t, coordSrv, p); got != want {
				t.Fatalf("%s: replica's %s differs from coordinator's:\n%s", step, p, got)
			}
		}
	}
	assertParity("half", repSrv)

	// The coordinator keeps ingesting; the replica follows. No explicit
	// commit here — the feed's own Sync makes the tail shippable.
	if err := coord.AppendBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full catch-up", caughtUp(uint64(len(events)), 0))
	assertParity("full", repSrv)

	// A retroactive re-attribution replicates like any other record.
	sn := mustSnapshot(t, coord)
	orig := sn.Events()[0]
	relabeled := orig
	for i := range sn.Events() {
		if cve := sn.Events()[i].CVE; cve != "" && cve != orig.CVE {
			relabeled.CVE = cve
			break
		}
	}
	if relabeled.CVE == orig.CVE {
		t.Fatal("no second CVE to re-label with")
	}
	amend := eventstore.Amendment{Event: relabeled, OrigSID: orig.SID, OrigCVE: orig.CVE, Gen: 1}
	if err := coord.AppendAmendments([]eventstore.Amendment{amend}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "amendment catch-up", caughtUp(uint64(len(events)), 1))
	assertParity("amended", repSrv)

	// Replication health is visible on both sides' /metrics.
	repMetrics := getBody(t, repSrv, "/metrics")
	for _, want := range []string{
		"waybackd_replica_connected 1",
		"waybackd_replica_lag_events 0",
		"waybackd_replica_fatal 0",
	} {
		if !strings.Contains(repMetrics, want) {
			t.Errorf("replica metrics missing %q", want)
		}
	}
	coordMetrics := getBody(t, coordSrv, "/metrics")
	for _, want := range []string{
		"waybackd_replica_feed_replicas 1",
		`waybackd_replica_feed_connected{replica="r1"} 1`,
		`waybackd_replica_feed_events_sent_total{replica="r1"} `,
	} {
		if !strings.Contains(coordMetrics, want) {
			t.Errorf("feed metrics missing %q", want)
		}
	}

	// Restart the replica: close it, close its store, reopen both from disk.
	shipped := feedStatus(t, feed, "r1").EventsSent
	if shipped != uint64(len(events)) {
		t.Fatalf("feed shipped %d events before restart, want %d", shipped, len(events))
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := repStore.Close(); err != nil {
		t.Fatal(err)
	}

	delta := make([]ids.Event, 5)
	for i := range delta {
		delta[i] = events[i]
		delta[i].Time = delta[i].Time.Add(time.Duration(i+1) * time.Millisecond)
	}
	if err := coord.AppendBatch(delta); err != nil {
		t.Fatal(err)
	}

	repStore2, err := wayback.OpenStore(repDir)
	if err != nil {
		t.Fatal(err)
	}
	defer repStore2.Close()
	rep2, err := replica.Start(replica.Config{
		Addr: feed.Addr(), Store: repStore2, ID: "r1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	total := uint64(len(events) + len(delta))
	waitFor(t, "post-restart catch-up", func() bool {
		st := rep2.Status()
		return st.Rounds > 0 && st.LocalEvents == total && st.LocalAmends == 1 && st.LagEvents == 0
	})

	// The load-bearing restart claim: cumulative shipped == events + delta.
	// A replica that refetched the log would roughly double this.
	if got := feedStatus(t, feed, "r1").EventsSent; got != total {
		t.Fatalf("feed shipped %d events in total after restart, want %d (delta-only resume)", got, total)
	}

	repSrv2, err := serve.New(withTimeline(t, study, serve.Config{Study: study, Store: repStore2, Replica: rep2}))
	if err != nil {
		t.Fatal(err)
	}
	assertParity("restarted", repSrv2)
}

func feedStatus(t *testing.T, feed *replica.Feed, id string) replica.FeedStatus {
	t.Helper()
	for _, st := range feed.Replicas() {
		if st.ID == id {
			return st
		}
	}
	t.Fatalf("feed has no replica %q", id)
	return replica.FeedStatus{}
}

// TestReplicaDivergence: a replica whose store claims events the coordinator
// never committed gets a terminal Err — tailing stops for good and /healthz
// answers 503 "diverged" instead of serving an interleaved history.
func TestReplicaDivergence(t *testing.T) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := wayback.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	feed, err := replica.ListenFeed(testFeedConfig(coord, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	// The "replica" already has committed history of its own.
	repStore, err := wayback.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repStore.Close()
	if err := repStore.AppendBatch([]ids.Event{{SID: 1, CVE: "2021-44228", Time: time.Now().UTC()}}); err != nil {
		t.Fatal(err)
	}
	if err := repStore.Sync(); err != nil {
		t.Fatal(err)
	}

	rep, err := replica.Start(replica.Config{
		Addr: feed.Addr(), Store: repStore, ID: "rogue",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitFor(t, "divergence detection", func() bool { return rep.Status().Err != "" })
	if got := rep.Status().Err; !strings.Contains(got, "ahead of coordinator") {
		t.Fatalf("divergence error %q does not name the cause", got)
	}

	srv, err := serve.New(withTimeline(t, study, serve.Config{Study: study, Store: repStore, Replica: rep}))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "diverged\n") {
		t.Fatalf("diverged replica healthz: %d %q", rec.Code, rec.Body.String())
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

// withTimeline gives cfg a timeline engine over its store, in a fresh
// directory: serve.New requires one.
func withTimeline(t *testing.T, study *wayback.Study, cfg serve.Config) serve.Config {
	t.Helper()
	eng, err := study.OpenTimeline(t.TempDir(), cfg.Store, timeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timeline = eng
	return cfg
}
