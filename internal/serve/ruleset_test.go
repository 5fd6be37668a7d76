package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/registry"
	"repro/internal/tcpasm"
)

func TestRulesetEndpoints(t *testing.T) {
	f := newFixture(t)
	reg, err := registry.Open(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv, err := New(withTimeline(t, Config{
		Study: f.study, Store: f.srv.cfg.Store,
		Registry: reg, RescanBacklogMax: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		var r *httptest.ResponseRecorder = httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		srv.Handler().ServeHTTP(r, req)
		return r
	}

	rec := do("GET", "/v1/ruleset", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/ruleset: %d: %s", rec.Code, rec.Body.String())
	}
	var state struct {
		Generation    uint64 `json:"generation"`
		Rules         int    `json:"rules"`
		RescanNeeded  bool   `json:"rescan_needed"`
		RescanPending int64  `json:"rescan_pending"`
		Ruleset       string `json:"ruleset"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if state.Generation != 0 || state.Rules != 0 {
		t.Fatalf("fresh registry state: %+v", state)
	}

	// Publish a delta over HTTP: engine swaps, generation moves.
	delta := "# published: 2021-09-01T00:00:00Z\n" +
		`alert tcp any any -> any any (msg:"posted"; content:"zzz-token"; reference:cve,2021-2000; sid:700001; rev:1;)` + "\n"
	rec = do("POST", "/v1/ruleset", delta)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/ruleset: %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if state.Generation != 1 || state.Rules != 1 || !state.RescanNeeded {
		t.Fatalf("post-publish state: %+v", state)
	}
	if n := reg.Engine().NumRules(); n != 1 {
		t.Fatalf("live engine has %d rules, want 1", n)
	}

	// Malformed deltas are rejected loudly, not journaled.
	rec = do("POST", "/v1/ruleset", "alert tcp any any -> any any (msg:\"no sid\";)")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed publish: %d", rec.Code)
	}
	if reg.Generation() != 1 {
		t.Fatalf("malformed publish moved the generation to %d", reg.Generation())
	}

	// ?full=1 returns the dated ruleset text.
	rec = do("GET", "/v1/ruleset?full=1", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(state.Ruleset, "sid:700001") || !strings.Contains(state.Ruleset, "# published: 2021-09-01") {
		t.Fatalf("?full=1 ruleset text:\n%s", state.Ruleset)
	}

	// The rescan gauges are on /metrics.
	rec = do("GET", "/metrics", "")
	for _, want := range []string{
		"waybackd_ruleset_generation 1",
		"waybackd_ruleset_rules 1",
		"waybackd_ruleset_rescan_pending",
		"waybackd_ruleset_rescan_done",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Healthz degrades while the rescan backlog exceeds the threshold (1):
	// record two digests, publish again so they become pending.
	sessions := []tcpasm.Session{
		{
			Client: packet.Endpoint{Addr: packet.MustAddr("203.0.113.9"), Port: 40001},
			Server: packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80},
			Start:  time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC), Complete: true,
			ClientData: []byte("benign"),
		},
		{
			Client: packet.Endpoint{Addr: packet.MustAddr("203.0.113.9"), Port: 40002},
			Server: packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80},
			Start:  time.Date(2022, 3, 1, 1, 0, 0, 0, time.UTC), Complete: true,
			ClientData: []byte("zzz-token"),
		},
	}
	var digests []registry.Digest
	for i := range sessions {
		digests = append(digests, registry.DigestOf(&sessions[i], nil, 0))
	}
	if err := reg.RecordDigests(reg.Engine(), digests); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(nil); err == nil {
		t.Fatal("empty publish must fail")
	}
	delta2 := "# published: 2021-10-01T00:00:00Z\n" +
		`alert tcp any any -> any any (msg:"two"; content:"second-sig"; sid:700002; rev:1;)` + "\n"
	rec = do("POST", "/v1/ruleset", delta2)
	if rec.Code != http.StatusOK {
		t.Fatalf("second publish: %d: %s", rec.Code, rec.Body.String())
	}
	rec = do("GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.HasPrefix(rec.Body.String(), "degraded\n") {
		t.Fatalf("healthz with backlog 2 > max 1: %d %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "rescan_backlog 2") {
		t.Fatalf("healthz body missing backlog: %q", rec.Body.String())
	}

	// Running the rescan clears the backlog; one digest now matches the
	// gen-1 rule and becomes an addition amendment.
	rec = do("POST", "/v1/ruleset/rescan", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST rescan: %d: %s", rec.Code, rec.Body.String())
	}
	var stats struct {
		Digests   int `json:"digests"`
		Additions int `json:"additions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Digests != 2 || stats.Additions != 1 {
		t.Fatalf("rescan stats: %+v", stats)
	}
	rec = do("GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after rescan: %d %q", rec.Code, rec.Body.String())
	}
}

func TestRulesetEndpointsDisabled(t *testing.T) {
	f := newFixture(t)
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/ruleset"},
		{"POST", "/v1/ruleset"},
		{"POST", "/v1/ruleset/rescan"},
	} {
		r := httptest.NewRequest(req.method, req.path, strings.NewReader(""))
		rec := httptest.NewRecorder()
		f.srv.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s without registry: %d", req.method, req.path, rec.Code)
		}
	}
}
