package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/timeline"
	"repro/wayback"
)

// eventsQuery is one /v1/events request: its raw parameters, "" = absent.
type eventsQuery struct {
	cve, since, until, limit, asof string
}

func (q eventsQuery) path() string {
	v := url.Values{}
	for _, p := range [][2]string{{"cve", q.cve}, {"since", q.since}, {"until", q.until}, {"limit", q.limit}, {"asof", q.asof}} {
		if p[1] != "" {
			v.Set(p[0], p[1])
		}
	}
	return "/v1/events?" + v.Encode()
}

// wantEventsBody is the oracle: the /v1/events body for q, built by
// filtering the store's merged snapshot.
func wantEventsBody(t *testing.T, sn *eventstore.Snapshot, q eventsQuery) []byte {
	t.Helper()
	parse := func(v string, layout string) time.Time {
		if v == "" {
			return time.Time{}
		}
		at, err := time.Parse(layout, v)
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	since, until, asof := parse(q.since, time.RFC3339), parse(q.until, time.RFC3339), parse(q.asof, time.RFC3339)
	limit := 0
	if q.limit != "" {
		limit, _ = strconv.Atoi(q.limit)
	}
	out := struct {
		Generation uint64      `json:"generation"`
		Total      int         `json:"total"`
		Events     []eventJSON `json:"events"`
	}{Generation: sn.Generation(), Events: []eventJSON{}}
	for _, ev := range sn.Events() {
		if cve := trimCVE(q.cve); cve != "" && ev.CVE != cve {
			continue
		}
		if !asof.IsZero() && ev.Time.After(asof) ||
			!since.IsZero() && ev.Time.Before(since) ||
			!until.IsZero() && !ev.Time.Before(until) {
			continue
		}
		out.Total++
		if limit == 0 || len(out.Events) < limit {
			out.Events = append(out.Events, toEventJSON(ev))
		}
	}
	body, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEventsDifferential: /v1/events reads a timeline view, and its body
// must be byte-identical to the same filters applied to Store.Snapshot — for
// every combination of cve, since, until, limit and asof — before a seal,
// after one, after an amendment, and after a restart over a fully sealed
// store.
func TestEventsDifferential(t *testing.T) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := batch.Events
	// The two busiest CVEs, and instants at the quartiles and the median.
	counts := map[string]int{}
	times := make([]time.Time, len(events))
	for i, ev := range events {
		if ev.CVE != "" {
			counts[ev.CVE]++
		}
		times[i] = ev.Time
	}
	var cves []string
	for cve := range counts {
		cves = append(cves, cve)
	}
	sort.Slice(cves, func(i, j int) bool {
		return counts[cves[i]] > counts[cves[j]] || counts[cves[i]] == counts[cves[j]] && cves[i] < cves[j]
	})
	hot, warm := cves[0], cves[1]
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	stamp := func(at time.Time) string { return at.UTC().Format(time.RFC3339Nano) }
	q1, mid, q3 := times[len(times)/4], times[len(times)/2], times[3*len(times)/4]

	var queries []eventsQuery
	for _, cve := range []string{"", "CVE-" + hot, warm, "1999-99999"} {
		for _, since := range []string{"", stamp(q1)} {
			for _, until := range []string{"", stamp(q3)} {
				for _, limit := range []string{"", "0", "7"} {
					for _, asof := range []string{"", stamp(mid)} {
						queries = append(queries, eventsQuery{cve, since, until, limit, asof})
					}
				}
			}
		}
	}

	storeDir, tlDir := t.TempDir(), t.TempDir()
	store, err := wayback.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { store.Close() }()
	eng, err := study.OpenTimeline(tlDir, store, timeline.Config{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendCommit := func(evs []ids.Event) {
		t.Helper()
		if err := store.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(state string) {
		t.Helper()
		srv, err := New(Config{Study: study, Store: store, Timeline: eng})
		if err != nil {
			t.Fatal(err)
		}
		f := &fixture{study: study, srv: srv}
		sn := mustSnapshot(t, store)
		for _, q := range queries {
			rec := f.getOK(t, q.path())
			if want := wantEventsBody(t, sn, q); rec.Body.String() != string(want) {
				t.Fatalf("%s: GET %s:\n got %.300s\nwant %.300s", state, q.path(), rec.Body.String(), want)
			}
			if got, want := rec.Header().Get("X-Store-Generation"), strconv.FormatUint(sn.Generation(), 10); got != want {
				t.Fatalf("%s: GET %s: generation header %s, want %s", state, q.path(), got, want)
			}
		}
		// The ETag names the body: a matching If-None-Match answers 304.
		path := queries[len(queries)-1].path()
		etag := f.getOK(t, path).Header().Get("ETag")
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", etag)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("%s: GET %s with its own ETag: %d, %d bytes", state, path, rec.Code, rec.Body.Len())
		}
	}

	// Before a seal: a committed prefix and an uncommitted tail, all in memory.
	third := len(events) / 3
	appendCommit(events[:third])
	if err := store.AppendBatch(events[third : third+100]); err != nil {
		t.Fatal(err)
	}
	check("before a seal")

	// After a seal: the committed history lives in a segment and the shard
	// logs, with a fresh tail on top.
	if err := store.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if sealed, err := eng.Seal(); err != nil || !sealed {
		t.Fatalf("seal: sealed=%v err=%v", sealed, err)
	}
	appendCommit(events[third+100 : 2*third])
	if sealed, err := eng.Seal(); err != nil || !sealed {
		t.Fatalf("seal: sealed=%v err=%v", sealed, err)
	}
	// Twins of sealed events tie with them in the canonical order (same
	// time, SID and source) but not in the body, so the read must keep
	// arrival order across the segments and the tail.
	twins := make([]ids.Event, 30)
	for i := range twins {
		twins[i] = events[i]
		twins[i].Dst.Port++
		twins[i].Bytes++
	}
	appendCommit(twins)
	appendCommit(events[2*third : len(events)-50])
	if err := store.AppendBatch(events[len(events)-50:]); err != nil {
		t.Fatal(err)
	}
	if store.Resident() != len(twins)+len(events)-2*third {
		t.Fatalf("%d events resident after two seals", store.Resident())
	}
	check("after a seal")

	// After an amendment: one of the hot CVE's sessions re-labeled to the
	// warm one, and one retracted, both before the median instant.
	var amends []eventstore.Amendment
	for _, ev := range events[:third] {
		if ev.CVE != hot || ev.Time.After(mid) {
			continue
		}
		a := eventstore.Amendment{Event: ev, OrigSID: ev.SID, OrigCVE: ev.CVE, Gen: 1}
		if len(amends) == 0 {
			a.Event.CVE = warm
		} else {
			a.Event.SID = 0
		}
		if amends = append(amends, a); len(amends) == 2 {
			break
		}
	}
	if len(amends) != 2 {
		t.Fatal("no two hot-CVE sessions to amend")
	}
	if err := store.AppendAmendments(amends); err != nil {
		t.Fatal(err)
	}
	check("after an amendment")

	// After a restart over a fully sealed store: nothing is resident, and
	// every event is read from the segments.
	if err := store.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = wayback.OpenStore(storeDir); err != nil {
		t.Fatal(err)
	}
	if eng, err = study.OpenTimeline(tlDir, store, timeline.Config{CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if store.Resident() != 0 || store.Len() != len(events)+len(twins) {
		t.Fatalf("reopened store: %d events, %d resident", store.Len(), store.Resident())
	}
	check("after a restart")
}
