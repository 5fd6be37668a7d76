package eventstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ids"
)

func amendFor(ev ids.Event, newSID int, pub time.Time, cve string, gen uint64) Amendment {
	a := Amendment{Event: ev, OrigSID: ev.SID, OrigCVE: ev.CVE, Gen: gen}
	a.Event.SID = newSID
	a.Event.Published = pub
	a.Event.CVE = cve
	a.Event.Msg = "REGISTRY re-attribution"
	return a
}

func TestAmendmentCodecRoundTrip(t *testing.T) {
	a := Amendment{Event: testEvent(3), OrigSID: 12345, OrigCVE: "2021-44228", Gen: 7}
	payload := EncodeAmendment(nil, &a)
	got, err := DecodeAmendment(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(got.Event, a.Event) || got.OrigSID != a.OrigSID ||
		got.OrigCVE != a.OrigCVE || got.Gen != a.Gen {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, a)
	}
	if _, err := DecodeAmendment(payload[:len(payload)-2]); err == nil {
		t.Error("truncated amendment decoded")
	}
	if _, err := DecodeAmendment(append(payload, 0)); err == nil {
		t.Error("oversized amendment decoded")
	}
}

// TestAmendmentsRelabelSnapshot: an amendment replaces the session's event in
// Snapshot, the raw shard logs stay untouched, and max generation wins.
func TestAmendmentsRelabelSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ev := testEvent(0)
	if err := st.Append(ev); err != nil {
		t.Fatal(err)
	}
	earlier := ev.Published.AddDate(-1, 0, 0)
	a1 := amendFor(ev, 900001, earlier, "2020-0001", 1)
	a2 := amendFor(ev, 900002, earlier.AddDate(0, 1, 0), "2020-0002", 2)
	if err := st.AppendAmendments([]Amendment{a1}); err != nil {
		t.Fatal(err)
	}
	sn := mustSnapshot(t, st)
	if sn.Len() != 1 || sn.Events()[0].SID != 900001 {
		t.Fatalf("after gen-1 amendment: %+v", sn.Events())
	}
	if err := st.AppendAmendments([]Amendment{a2}); err != nil {
		t.Fatal(err)
	}
	sn = mustSnapshot(t, st)
	if sn.Len() != 1 || sn.Events()[0].SID != 900002 || sn.Events()[0].CVE != "2020-0002" {
		t.Fatalf("max generation should win: %+v", sn.Events())
	}
	// Raw funnels stay un-amended: the timeline seals raw history.
	raw := 0
	for _, part := range st.PublishedEvents() {
		raw += part.Len()
	}
	if raw != 1 {
		t.Fatalf("raw events %d, want 1", raw)
	}
	for _, part := range st.PublishedEvents() {
		for _, rev := range part.Events {
			if rev.SID != ev.SID {
				t.Fatalf("raw log was rewritten: %+v", rev)
			}
		}
	}
	if got := st.AmendmentStats(); got.Records != 2 || got.Sessions != 1 {
		t.Fatalf("AmendmentStats = %+v", got)
	}
}

// TestAmendmentsAddAndRetract: OrigSID 0 adds a previously-unmatched
// session's event; new SID 0 retracts one.
func TestAmendmentsAddAndRetract(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kept := testEvent(1)
	retracted := testEvent(2)
	if err := st.AppendBatch([]ids.Event{kept, retracted}); err != nil {
		t.Fatal(err)
	}
	// Addition: a session that matched nothing at ingest gains a label.
	added := testEvent(9)
	added.SID = 700001
	addAmend := Amendment{Event: added, OrigSID: 0, Gen: 3}
	// Retraction: the rule that matched `retracted` was withdrawn.
	retAmend := Amendment{Event: retracted, OrigSID: retracted.SID, OrigCVE: retracted.CVE, Gen: 3}
	retAmend.Event.SID = 0
	if err := st.AppendAmendments([]Amendment{addAmend, retAmend}); err != nil {
		t.Fatal(err)
	}
	sn := mustSnapshot(t, st)
	if sn.Len() != 2 {
		t.Fatalf("snapshot has %d events, want 2: %+v", sn.Len(), sn.Events())
	}
	sids := map[int]bool{}
	for _, ev := range sn.Events() {
		sids[ev.SID] = true
	}
	if !sids[kept.SID] || !sids[700001] || sids[retracted.SID] {
		t.Fatalf("resolved SIDs wrong: %v", sids)
	}
}

// TestAmendmentsSurviveReopen: the log is fsynced per append and recovered
// at Open; a torn tail costs only the torn record.
func TestAmendmentsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev := testEvent(0)
	if err := st.Append(ev); err != nil {
		t.Fatal(err)
	}
	a := amendFor(ev, 900100, ev.Published.AddDate(-1, 0, 0), "2020-0100", 1)
	if err := st.AppendAmendments([]Amendment{a}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append garbage half-frame.
	path := filepath.Join(dir, "amend.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x01, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	as := st2.Amendments()
	if len(as) != 1 || as[0].Event.SID != 900100 || as[0].Gen != 1 {
		t.Fatalf("recovered amendments: %+v", as)
	}
	sn := mustSnapshot(t, st2)
	if sn.Len() != 1 || sn.Events()[0].SID != 900100 {
		t.Fatalf("recovered snapshot not amended: %+v", sn.Events())
	}
	// The torn tail was truncated: further appends must land cleanly.
	if err := st2.AppendAmendments([]Amendment{amendFor(ev, 900101, ev.Published, "2020-0101", 2)}); err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, st2).Events()[0].SID; got != 900101 {
		t.Fatalf("post-recovery amendment lost: SID %d", got)
	}
}
