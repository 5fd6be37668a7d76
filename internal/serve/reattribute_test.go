package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/tcpasm"
	"repro/internal/timeline"
	"repro/wayback"
)

// TestRulesetRescanMovesDiff is the issue's end-to-end re-attribution check
// over HTTP: publish a rule with an earlier publication date after ingest,
// run the rescan, and /v1/diff across the study window shows the letters
// moving — the re-labeled CVE appears with its lifecycle events, the
// original label vanishes.
func TestRulesetRescanMovesDiff(t *testing.T) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := wayback.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "rules")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })

	// Generation 1: one rule, dated late in the study.
	if _, err := reg.Publish(datedDelta(t,
		`alert tcp any any -> any any (msg:"a"; content:"alpha-token"; reference:cve,2022-5000; sid:800001; rev:1;)`,
		time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}

	// Two ingested sessions: one matched under gen 1, one unmatched.
	t1 := time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC)
	t2 := t1.Add(time.Hour)
	mk := func(port uint16, start time.Time, data string) tcpasm.Session {
		return tcpasm.Session{
			Client:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.7"), Port: port},
			Server:     packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80},
			Start:      start,
			ClientData: []byte(data),
			Complete:   true,
		}
	}
	s1 := mk(40001, t1, "GET /alpha-token HTTP/1.1\r\n\r\n")
	s2 := mk(40002, t2, "GET /beta-token HTTP/1.1\r\n\r\n")
	ev, ok := ids.MatchSession(&s1, reg.Engine())
	if !ok {
		t.Fatal("s1 must match the gen-1 rule")
	}
	if err := store.AppendBatch([]ids.Event{ev}); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.RecordDigests(reg.Engine(), []registry.Digest{
		registry.DigestOf(&s1, &ev, 0),
		registry.DigestOf(&s2, nil, 0),
	}); err != nil {
		t.Fatal(err)
	}

	tl, err := timeline.Open(timeline.Config{Dir: filepath.Join(dir, "tl"), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Seal(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Study: study, Store: store, Timeline: tl, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return rec
	}
	type diffResp struct {
		CVEs []timeline.CVEDiff `json:"cves"`
	}
	getDiff := func() map[string]timeline.CVEDiff {
		t.Helper()
		var resp diffResp
		rec := do("GET", "/v1/diff?from=2022-01-01&to=2022-12-31", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		out := map[string]timeline.CVEDiff{}
		for _, d := range resp.CVEs {
			out[d.CVE] = d
		}
		return out
	}

	before := getDiff()
	if d, ok := before["2022-5000"]; !ok || !d.New || d.EventsTo != 1 {
		t.Fatalf("baseline diff: %+v", before)
	}

	// Generation 2, published over HTTP: an earlier-dated signature for the
	// matched session, and a first signature for the unmatched one.
	delta := "# published: 2021-09-01T00:00:00Z\n" +
		`alert tcp any any -> any any (msg:"early"; content:"alpha-token"; reference:cve,2021-7000; sid:800002; rev:1;)` + "\n" +
		"# published: 2021-10-01T00:00:00Z\n" +
		`alert tcp any any -> any any (msg:"late sig"; content:"beta-token"; reference:cve,2021-8000; sid:800003; rev:1;)` + "\n"
	do("POST", "/v1/ruleset", delta)
	rec := do("POST", "/v1/ruleset/rescan", "")
	var stats struct {
		Digests   int `json:"digests"`
		Amended   int `json:"amended"`
		Additions int `json:"additions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Digests != 2 || stats.Amended != 2 || stats.Additions != 1 {
		t.Fatalf("rescan stats: %+v", stats)
	}

	after := getDiff()
	if _, ok := after["2022-5000"]; ok {
		t.Fatalf("original label survived the rescan: %+v", after["2022-5000"])
	}
	letters := func(d timeline.CVEDiff) map[string]bool {
		m := map[string]bool{}
		for _, c := range d.Changed {
			m[c.Letter] = true
		}
		return m
	}
	d, ok := after["2021-7000"]
	if !ok || !d.New || d.EventsTo != 1 || !letters(d)["A"] {
		t.Fatalf("re-labeled CVE diff: %+v (present %v)", d, ok)
	}
	d, ok = after["2021-8000"]
	if !ok || !d.New || d.EventsTo != 1 || !letters(d)["A"] {
		t.Fatalf("added CVE diff: %+v (present %v)", d, ok)
	}

	// The amendment gauges moved with the rescan.
	metrics := do("GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"waybackd_store_amendment_records 2",
		"waybackd_store_amended_sessions 2",
		"waybackd_ruleset_rescan_done 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// datedDelta parses one rule text into a single-rule dated delta.
func datedDelta(t *testing.T, raw string, pub time.Time) []rules.DatedRule {
	t.Helper()
	r, err := rules.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return []rules.DatedRule{{Rule: r, Published: pub}}
}
