package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/wayback"
)

// incFixture is a serve fixture that keeps the concrete store handle, so
// tests can append amendments (not just events) and drive generation bumps
// the way a registry rescan would.
type incFixture struct {
	*fixture
	est *eventstore.Store
}

// newIncFixture builds a server over an initially empty store; tests append
// batches themselves to walk the generations.
func newIncFixture(t *testing.T) *incFixture {
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
	srv, err := New(Config{Study: study, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return &incFixture{
		fixture: &fixture{study: study, batch: batch, srv: srv, store: store},
		est:     store,
	}
}

func getBody(t *testing.T, srv *Server, path string) string {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// relabelAmendment builds an amendment re-attributing the first event of the
// current snapshot to some other CVE present in the event set.
func relabelAmendment(t *testing.T, est *eventstore.Store, gen uint64) eventstore.Amendment {
	t.Helper()
	sn := mustSnapshot(t, est)
	events := sn.Events()
	if len(events) == 0 {
		t.Fatal("empty store")
	}
	orig := events[0]
	relabeled := orig
	for i := range events {
		if cve := events[i].CVE; cve != "" && cve != orig.CVE {
			relabeled.CVE = cve
			break
		}
	}
	if relabeled.CVE == orig.CVE {
		t.Fatal("no second CVE to re-label with")
	}
	return eventstore.Amendment{Event: relabeled, OrigSID: orig.SID, OrigCVE: orig.CVE, Gen: gen}
}

// TestServeParityAcrossGenerations proves the long-lived server — whose
// Results are maintained as folds — answers byte-for-byte like a server built
// fresh at each generation, through multi-batch ingest and an amendment-driven
// fallback rebuild. The endpoints chosen cover each derived surface: Table 4
// (lifecycle stats), Table 5 (lazy raw-event materialization), Figure 3
// (histograms), Figure 7 (ECDFs).
func TestServeParityAcrossGenerations(t *testing.T) {
	f := newIncFixture(t)
	paths := []string{"/v1/tables/4", "/v1/tables/5", "/v1/figures/3", "/v1/figures/7"}
	check := func(step string) {
		t.Helper()
		fresh, err := New(Config{Study: f.study, Store: f.est})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if got, want := getBody(t, f.srv, p), getBody(t, fresh, p); got != want {
				t.Fatalf("%s: %s diverged from a fresh server:\n%s", step, p, got)
			}
		}
	}

	events := f.batch.Events
	cuts := []int{len(events) / 4, len(events) / 2, len(events)}
	prev := 0
	for _, cut := range cuts {
		if err := f.est.AppendBatch(events[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		check("batch")
	}
	m := f.srv.inc.Metrics()
	if m.Rebuilds != 1 {
		t.Fatalf("long-lived server rebuilt %d times during pure appends, want 1", m.Rebuilds)
	}

	// Cross-check against the batch-study cold path too, not just another
	// server instance.
	cold, _ := f.study.ResultsFromStore(f.est)
	if got, want := getBody(t, f.srv, "/v1/tables/4"), cold.Table4().String(); got != want {
		t.Fatalf("Table 4 diverged from ResultsFromStore:\n%s", got)
	}

	if err := f.est.AppendAmendments([]eventstore.Amendment{relabelAmendment(t, f.est, 1)}); err != nil {
		t.Fatal(err)
	}
	check("amendment")
	if got := f.srv.inc.Metrics().Rebuilds; got != 2 {
		t.Fatalf("amendment caused %d rebuilds, want 2", got)
	}

	// The fold/rebuild meters are on /metrics for operators.
	metrics := f.getOK(t, "/metrics").Body.String()
	for _, want := range []string{
		"waybackd_results_rebuilds_total 2",
		"waybackd_results_folds_total ",
		"waybackd_results_folded_events_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSingleflightBurst sends concurrent bursts at a cold cache and proves
// the body is built exactly once per generation: one miss leads the build,
// every other request coalesces onto it (counted as hits), and the
// incremental view recomputes exactly once.
func TestSingleflightBurst(t *testing.T) {
	f := newIncFixture(t)
	if err := f.est.AppendBatch(f.batch.Events); err != nil {
		t.Fatal(err)
	}
	const clients = 16
	burst := func() {
		t.Helper()
		var wg sync.WaitGroup
		bodies := make([]string, clients)
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			go func(i int) {
				defer wg.Done()
				req := httptest.NewRequest("GET", "/v1/tables/4", nil)
				rec := httptest.NewRecorder()
				f.srv.Handler().ServeHTTP(rec, req)
				if rec.Code == http.StatusOK {
					bodies[i] = rec.Body.String()
				}
			}(i)
		}
		wg.Wait()
		for i := 1; i < clients; i++ {
			if bodies[i] != bodies[0] || bodies[i] == "" {
				t.Fatalf("burst bodies diverged (client %d)", i)
			}
		}
	}

	burst()
	hits, misses := f.srv.CacheStats()
	if misses != 1 {
		t.Fatalf("cold burst built the body %d times, want exactly 1", misses)
	}
	if hits != clients-1 {
		t.Fatalf("cold burst: %d hits, want %d coalesced/cached", hits, clients-1)
	}
	if m := f.srv.inc.Metrics(); m.Rebuilds != 1 {
		t.Fatalf("cold burst recomputed Results %d times, want 1", m.Rebuilds)
	}

	// Bump the generation; the next burst must rebuild the body exactly once
	// and absorb the new event as exactly one fold.
	if err := f.est.AppendBatch([]ids.Event{{SID: 999999, Msg: "unattributed", Time: time.Now().UTC()}}); err != nil {
		t.Fatal(err)
	}
	burst()
	_, misses2 := f.srv.CacheStats()
	if misses2 != 2 {
		t.Fatalf("post-append burst: %d total misses, want 2 (one build per generation)", misses2)
	}
	m := f.srv.inc.Metrics()
	if m.Rebuilds != 1 || m.Folds != 1 {
		t.Fatalf("post-append burst: rebuilds %d folds %d, want 1 and 1", m.Rebuilds, m.Folds)
	}
}

// TestConditionalAfterAmendment: a poller holding a pre-amendment ETag must
// get 200 with a fresh validator once an amendment bumps the generation —
// never a stale 304 — on both the live and the ?asof= form of an endpoint.
func TestConditionalAfterAmendment(t *testing.T) {
	f := newAsofFixture(t)
	asofPath := "/v1/tables/4?asof=" + f.end.UTC().Format("2006-01-02T15:04:05Z")
	paths := []string{"/v1/tables/4", asofPath}

	etags := make(map[string]string)
	for _, p := range paths {
		rec := f.getOK(t, p)
		etag := rec.Header().Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", p)
		}
		etags[p] = etag
		// While the store is quiet the validator matches: 304, empty body.
		cond := f.getIfNoneMatch(t, p, etag)
		if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
			t.Fatalf("%s: quiet-store conditional gave %d with %d bytes", p, cond.Code, cond.Body.Len())
		}
	}

	if err := f.est.AppendAmendments([]eventstore.Amendment{relabelAmendment(t, f.est, 1)}); err != nil {
		t.Fatal(err)
	}

	for _, p := range paths {
		rec := f.getIfNoneMatch(t, p, etags[p])
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: post-amendment conditional gave %d, want 200: %s", p, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("ETag"); got == etags[p] || got == "" {
			t.Fatalf("%s: ETag did not move across the amendment (still %q)", p, got)
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("%s: post-amendment 200 carried no body", p)
		}
	}
}

// TestCacheEvictionKeepsCurrent drives the response cache past its cap and
// checks the staged eviction policy: same-generation overflow (an ?asof= key
// flood) drops only the least-recently-used half, and a generation move drops
// the stale bodies first — recently hot current-generation entries are never
// wiped wholesale.
func TestCacheEvictionKeepsCurrent(t *testing.T) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := wayback.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Study: study, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	put := func(gen uint64, key string) (hit bool) {
		t.Helper()
		_, _, hit, err := srv.cachedBody(gen, key, func() ([]byte, string, error) {
			return []byte(key), "text/plain", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	// Fill to the cap at generation 1, then re-touch the upper half so it is
	// the recently-used half.
	for i := 0; i < maxCacheEntries; i++ {
		put(1, fmt.Sprintf("k%d", i))
	}
	for i := maxCacheEntries / 2; i < maxCacheEntries; i++ {
		if !put(1, fmt.Sprintf("k%d", i)) {
			t.Fatalf("k%d fell out of a full, unevicted cache", i)
		}
	}

	// Same-generation overflow: only the cold half goes.
	put(1, "overflow")
	if !put(1, fmt.Sprintf("k%d", maxCacheEntries-1)) {
		t.Fatal("recently-used entry was evicted by same-generation overflow")
	}
	if put(1, "k0") {
		t.Fatal("least-recently-used entry survived same-generation overflow")
	}

	// Refill to the cap, then move the generation: stale bodies are dropped
	// first and the new-generation entry lives alone.
	for i := 0; i < maxCacheEntries; i++ {
		put(1, fmt.Sprintf("k%d", i))
	}
	put(2, "fresh")
	srv.cacheMu.Lock()
	for k, e := range srv.cache {
		if e.gen != 2 {
			srv.cacheMu.Unlock()
			t.Fatalf("stale-generation entry %q (gen %d) survived a generation move", k, e.gen)
		}
	}
	n := len(srv.cache)
	srv.cacheMu.Unlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries after the generation move, want 1", n)
	}
	if !put(2, "fresh") {
		t.Fatal("current-generation entry was evicted")
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
