package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/tcpasm"
)

func datedRule(t testing.TB, raw string, pub time.Time) rules.DatedRule {
	t.Helper()
	r, err := rules.Parse(raw)
	if err != nil {
		t.Fatalf("Parse(%q): %v", raw, err)
	}
	return rules.DatedRule{Rule: r, Published: pub}
}

var (
	basePub  = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	earlyPub = time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)
)

func baseRuleset(t testing.TB) []rules.DatedRule {
	return []rules.DatedRule{
		datedRule(t, `alert tcp any any -> any any (msg:"base generic"; content:"cmd=evil"; reference:cve,2022-1000; sid:500001; rev:1;)`, basePub),
	}
}

func testSession(i int, data string) tcpasm.Session {
	return tcpasm.Session{
		Client:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.7"), Port: uint16(40000 + i)},
		Server:     packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80},
		Start:      time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		ClientData: []byte(data),
		Complete:   true,
	}
}

func TestPublishSwapsEngineAndPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Base: baseRuleset(t)}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 0 || r.NumRules() != 1 {
		t.Fatalf("fresh registry: gen %d rules %d", r.Generation(), r.NumRules())
	}
	e0 := r.Engine()
	s := testSession(0, "GET /x?cmd=evil HTTP/1.1\r\n\r\n")
	ev, ok := ids.MatchSession(&s, e0)
	if !ok || ev.SID != 500001 {
		t.Fatalf("base engine match: %v %+v", ok, ev)
	}

	delta := []rules.DatedRule{
		datedRule(t, `alert tcp any any -> any any (msg:"earlier specific"; content:"cmd=evil"; reference:cve,2021-2000; sid:500002; rev:1;)`, earlyPub),
	}
	gen, err := r.Publish(delta)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || r.Generation() != 1 || r.NumRules() != 2 {
		t.Fatalf("after publish: gen %d rules %d", r.Generation(), r.NumRules())
	}
	if r.Engine() == e0 {
		t.Fatal("publish must swap the engine pointer")
	}
	// Earliest-published-match now prefers the earlier rule.
	ev, ok = ids.MatchSession(&s, r.Engine())
	if !ok || ev.SID != 500002 || !ev.Published.Equal(earlyPub) {
		t.Fatalf("new engine match: %v %+v", ok, ev)
	}
	if !r.RescanNeeded() {
		t.Error("publish must set the rescan marker")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: journal folds back, generation and engine behavior persist.
	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Generation() != 1 || r2.NumRules() != 2 {
		t.Fatalf("reopened: gen %d rules %d", r2.Generation(), r2.NumRules())
	}
	ev, ok = ids.MatchSession(&s, r2.Engine())
	if !ok || ev.SID != 500002 {
		t.Fatalf("reopened engine match: %v %+v", ok, ev)
	}
	// The compiled automaton was cached on disk at first compile.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cached := false
	for _, n := range names {
		if strings.HasPrefix(n.Name(), "automaton-") && strings.HasSuffix(n.Name(), ".bin") {
			cached = true
		}
	}
	if !cached {
		t.Error("no automaton cache files written")
	}
}

// TestAutomatonCacheCrashSafe: the automaton cache is replaced atomically. A
// crash between the temp file's write and its rename leaves nothing under the
// final name, a reopen leaves no stray temp file, and once a store has
// returned the cached bytes are durable — a power loss cannot tear them.
func TestAutomatonCacheCrashSafe(t *testing.T) {
	fs := fault.NewSimFS(3, fault.Profile{})
	cfg := Config{Dir: "reg", FS: fs, Base: baseRuleset(t)}
	cacheFiles := func() (final, tmp []string) {
		for _, name := range fs.Files() {
			switch base := filepath.Base(name); {
			case !strings.HasPrefix(base, "automaton-"):
			case strings.HasSuffix(base, ".tmp"):
				tmp = append(tmp, name)
			default:
				final = append(final, name)
			}
		}
		return final, tmp
	}

	// Power fails at the rename: the temp file is written and synced, the
	// final name never appears.
	crashed := false
	fs.FailWith(func(op, name string) error {
		if crashed || (op == "rename" && strings.HasSuffix(name, ".bin.tmp")) {
			crashed = true
			return fault.ErrCrashed
		}
		return nil
	})
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.FailWith(nil)
	fs.Crash()
	r.Close()
	fs.Restart()
	if !crashed {
		t.Fatal("crash point never fired; the cache store did not rename a temp file")
	}
	if final, _ := cacheFiles(); len(final) != 0 {
		t.Fatalf("crash before rename left %v under the final name", final)
	}

	// Reopen: the cache is rebuilt, and no temp file survives it.
	if r, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	final, tmp := cacheFiles()
	if len(final) != 1 || len(tmp) != 0 {
		t.Fatalf("after reopen: cache files %v, temp files %v; want one and none", final, tmp)
	}
	want, err := fs.ReadFile(final[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ids.LoadCompiledMatcher(want); err != nil {
		t.Fatalf("cached automaton does not load: %v", err)
	}

	// Power loss at rest: the stored bytes were synced before the rename.
	fs.Crash()
	r.Close()
	fs.Restart()
	if got, err := fs.ReadFile(final[0]); err != nil || string(got) != string(want) {
		t.Fatalf("cache entry not durable across a crash: err=%v, %d bytes, want %d", err, len(got), len(want))
	}
}

func TestRefreshPicksUpCrossProcessPublish(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Base: baseRuleset(t)}
	daemon, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	ctl, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Publish([]rules.DatedRule{
		datedRule(t, `alert tcp any any -> any any (msg:"ctl published"; content:"zzz-token"; sid:500010; rev:1;)`, earlyPub),
	}); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	gen, err := daemon.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || daemon.NumRules() != 2 {
		t.Fatalf("refresh: gen %d rules %d", gen, daemon.NumRules())
	}
	s := testSession(1, "payload zzz-token here")
	if ev, ok := ids.MatchSession(&s, daemon.Engine()); !ok || ev.SID != 500010 {
		t.Fatalf("refreshed engine: %v %+v", ok, ev)
	}
	// No new entries: Refresh is a no-op returning the same generation.
	gen2, err := daemon.Refresh()
	if err != nil || gen2 != gen {
		t.Fatalf("idempotent refresh: %d %v", gen2, err)
	}
}

// TestRescanReattributesHistory is the subsystem's core promise: publish an
// earlier-published rule after ingest, rescan, and stored history re-labels
// to what a cold run over the final ruleset would say.
func TestRescanReattributesHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Base: baseRuleset(t)}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := eventstore.Open(filepath.Join(dir, "events"), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Ingest three sessions under generation 0: one matches the base rule,
	// one matches nothing (yet), one matches nothing ever.
	sessions := []tcpasm.Session{
		testSession(0, "GET /a?cmd=evil HTTP/1.1\r\n\r\n"),
		testSession(1, "POST /b late-sig-token HTTP/1.1\r\n\r\n"),
		testSession(2, "benign traffic"),
	}
	var digests []Digest
	for i := range sessions {
		ev, ok := ids.MatchSession(&sessions[i], r.Engine())
		if ok {
			if err := st.Append(ev); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, DigestOf(&sessions[i], &ev, r.SampleLimit()))
		} else {
			digests = append(digests, DigestOf(&sessions[i], nil, r.SampleLimit()))
		}
	}
	if err := r.RecordDigests(r.Engine(), digests); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncDigests(); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().Len() != 1 {
		t.Fatalf("pre-publish events: %d", st.Snapshot().Len())
	}

	// Publish: an earlier rule that outbids the base rule on session 0, and
	// a rule that newly matches session 1.
	delta := []rules.DatedRule{
		datedRule(t, `alert tcp any any -> any any (msg:"earlier"; content:"cmd=evil"; reference:cve,2021-2000; sid:500002; rev:1;)`, earlyPub),
		datedRule(t, `alert tcp any any -> any any (msg:"late sig"; content:"late-sig-token"; reference:cve,2021-3000; sid:500003; rev:1;)`, earlyPub),
	}
	if _, err := r.Publish(delta); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Rescan(st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Digests != 3 || stats.Amended != 2 || stats.Additions != 1 || stats.Retracted != 0 {
		t.Fatalf("rescan stats: %+v", stats)
	}
	if r.RescanNeeded() {
		t.Error("completed rescan must clear the marker")
	}
	if r.RescanPending() != 0 {
		t.Errorf("pending backlog = %d after rescan", r.RescanPending())
	}

	// Resolved history equals a cold run over the final ruleset.
	var cold []ids.Event
	for i := range sessions {
		if ev, ok := ids.MatchSession(&sessions[i], r.Engine()); ok {
			cold = append(cold, ev)
		}
	}
	eventstore.SortEvents(cold)
	got := st.Snapshot().Events()
	if len(got) != len(cold) {
		t.Fatalf("resolved %d events, cold run %d", len(got), len(cold))
	}
	for i := range got {
		if got[i].SID != cold[i].SID || got[i].CVE != cold[i].CVE ||
			!got[i].Published.Equal(cold[i].Published) || !got[i].Time.Equal(cold[i].Time) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], cold[i])
		}
	}

	// Idempotence: a second rescan (the crash-restart path) changes nothing.
	if _, err := r.Rescan(st); err != nil {
		t.Fatal(err)
	}
	again := st.Snapshot().Events()
	if len(again) != len(got) {
		t.Fatalf("re-rescan changed history: %d vs %d events", len(again), len(got))
	}
	for i := range again {
		if again[i].SID != got[i].SID {
			t.Fatalf("re-rescan changed event %d", i)
		}
	}
}

// TestRescanCatchesStaleBatch scripts the interleaving of an ingest batch
// with a concurrent publish and rescan: the matcher resolves the engine and
// labels its batch, a publication and its complete rescan run, and only then
// does the matcher record the batch's digests. The batch's pre-publish label
// must not stand: recording it re-arms the rescan, and the next rescan
// re-attributes it to what a cold run over the final ruleset would say.
func TestRescanCatchesStaleBatch(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir, Base: baseRuleset(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := eventstore.Open(filepath.Join(dir, "events"), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The matcher picks up a batch and labels it under generation 0.
	s := testSession(0, "GET /a?cmd=evil HTTP/1.1\r\n\r\n")
	eng := r.Engine()
	ev, ok := ids.MatchSession(&s, eng)
	if !ok || ev.SID != 500001 {
		t.Fatalf("generation-0 label: %v %+v", ok, ev)
	}

	// Meanwhile an earlier-published rule for the same traffic lands, and
	// its rescan walks the digest log — which does not hold the batch yet.
	delta := []rules.DatedRule{
		datedRule(t, `alert tcp any any -> any any (msg:"earlier"; content:"cmd=evil"; reference:cve,2021-2000; sid:500002; rev:1;)`, earlyPub),
	}
	if _, err := r.Publish(delta); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rescan(st); err != nil {
		t.Fatal(err)
	}

	// The matcher appends its events and records the batch's digests.
	if err := st.Append(ev); err != nil {
		t.Fatal(err)
	}
	if err := r.RecordDigests(eng, []Digest{DigestOf(&s, &ev, r.SampleLimit())}); err != nil {
		t.Fatal(err)
	}
	if !r.RescanNeeded() {
		t.Fatal("a batch labelled by a superseded engine must re-arm the rescan")
	}
	if _, err := r.Rescan(st); err != nil {
		t.Fatal(err)
	}
	if r.RescanNeeded() {
		t.Error("the follow-up rescan must clear the marker")
	}

	cold, ok := ids.MatchSession(&s, r.Engine())
	if !ok || cold.SID != 500002 {
		t.Fatalf("cold label: %v %+v", ok, cold)
	}
	got := st.Snapshot().Events()
	if len(got) != 1 || got[0].SID != cold.SID || got[0].CVE != cold.CVE {
		t.Fatalf("stored history %+v, cold run says sid %d", got, cold.SID)
	}
}

func TestDigestCodecRoundTrip(t *testing.T) {
	s := testSession(4, "GET / HTTP/1.1\r\n\r\n")
	s.ServerData = []byte("HTTP/1.1 200 OK\r\n\r\n")
	ev := ids.Event{SID: 7, CVE: "2021-44228", Published: earlyPub}
	d := DigestOf(&s, &ev, 0)
	payload := appendDigest(nil, &d)
	got, err := decodeDigest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(d.Start) || got.Client != d.Client || got.Server != d.Server ||
		string(got.ClientData) != string(d.ClientData) ||
		string(got.ServerData) != string(d.ServerData) ||
		got.Complete != d.Complete || got.Truncated != d.Truncated ||
		got.OrigSID != d.OrigSID || got.OrigCVE != d.OrigCVE ||
		!got.OrigPublished.Equal(d.OrigPublished) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
	if _, err := decodeDigest(payload[:len(payload)-1]); err == nil {
		t.Error("truncated digest decoded")
	}

	// Cap behavior: oversized streams truncate and mark the digest.
	big := testSession(5, strings.Repeat("A", 100))
	dcap := DigestOf(&big, nil, 10)
	if len(dcap.ClientData) != 10 || !dcap.Truncated {
		t.Fatalf("cap: %d bytes, truncated=%v", len(dcap.ClientData), dcap.Truncated)
	}
}

// TestDigestLogTrimsOversizedDigest: a digest beyond the record cap (a
// SampleLimit far above the default) is trimmed to fit and marked Truncated;
// it neither fails its batch nor leaves a frame that the next open refuses.
func TestDigestLogTrimsOversizedDigest(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	if err := fs.MkdirAll("reg", 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := openDigestLog(fs, "reg")
	if err != nil {
		t.Fatal(err)
	}
	small := testSession(1, "GET / HTTP/1.1\r\n\r\n")
	big := testSession(2, strings.Repeat("A", 700<<10))
	big.ServerData = []byte(strings.Repeat("B", 700<<10))
	batch := []Digest{DigestOf(&small, nil, 0), DigestOf(&big, nil, 1<<20), DigestOf(&small, nil, 0)}
	if batch[1].Truncated {
		t.Fatal("the big digest was already capped by its sample limit")
	}
	if err := l.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.log.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = openDigestLog(fs, "reg")
	if err != nil {
		t.Fatal(err)
	}
	defer l.log.Close()
	var got []Digest
	if err := l.walk(func(d Digest) error { got = append(got, d); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || l.Len() != 3 {
		t.Fatalf("recovered %d digests (Len %d), want 3", len(got), l.Len())
	}
	if d := got[1]; !d.Truncated || len(d.ClientData) != 700<<10 || len(d.ServerData) == 0 ||
		len(appendDigest(nil, &d)) != digestMaxRecord {
		t.Fatalf("big digest: truncated=%v client=%d server=%d", d.Truncated, len(d.ClientData), len(d.ServerData))
	}
	if got[0].Truncated || got[2].Truncated {
		t.Fatal("a digest under the cap was marked truncated")
	}
}

// TestDigestLogLongCVEReopens: a digest's OrigCVE is the matched rule's CVE
// reference, which has no length limit. The digest log stores it the way the
// event store stores an event's CVE — clamped to the string16 limit — so
// one over-long reference cannot write a record that makes the log refuse
// to reopen.
func TestDigestLogLongCVEReopens(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	if err := fs.MkdirAll("reg", 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := openDigestLog(fs, "reg")
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(1, "GET / HTTP/1.1\r\n\r\n")
	ev := ids.Event{SID: 7, CVE: strings.Repeat("9", 70000), Published: earlyPub}
	if err := l.Append([]Digest{DigestOf(&s, &ev, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.log.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = openDigestLog(fs, "reg")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.log.Close()
	var got []Digest
	if err := l.walk(func(d Digest) error { got = append(got, d); return nil }); err != nil {
		t.Fatal(err)
	}
	stored, err := eventstore.DecodeEvent(eventstore.EncodeEvent(nil, &ev))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(stored.CVE) != 65535 || got[0].OrigCVE != stored.CVE {
		t.Fatalf("recovered %d digests; want one whose OrigCVE is the event store's %d-byte CVE", len(got), len(stored.CVE))
	}
}

// FuzzRulesetJournal feeds arbitrary bytes as an on-disk journal: Open must
// never panic, must recover a clean prefix, and the journal must remain
// usable (publish + reopen round-trip) afterwards.
func FuzzRulesetJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add(journalMagic[:])
	f.Add(journalMagic[:4])
	f.Add(append(append([]byte{}, journalMagic[:]...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	// A valid single-entry journal, then mutations of it via the corpus.
	valid := func() []byte {
		dir := f.TempDir()
		cfg := Config{Dir: dir, Base: nil}
		r, err := Open(cfg)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := r.Publish([]rules.DatedRule{
			datedRule(f, `alert tcp any any -> any any (msg:"seed"; content:"abc"; sid:1; rev:1;)`, earlyPub),
		}); err != nil {
			f.Fatal(err)
		}
		r.Close()
		b, err := os.ReadFile(filepath.Join(dir, "ruleset.journal"))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "ruleset.journal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Config{Dir: dir})
		if err != nil {
			return // rejected loudly: fine
		}
		gen := r.Generation()
		// The journal must be append-ready after any recovery.
		if _, err := r.Publish([]rules.DatedRule{
			datedRule(t, `alert tcp any any -> any any (msg:"post"; content:"xyz"; sid:999; rev:1;)`, earlyPub),
		}); err != nil {
			t.Fatalf("publish after recovery of %d bytes: %v", len(data), err)
		}
		if r.Generation() != gen+1 {
			t.Fatalf("generation %d after publish, want %d", r.Generation(), gen+1)
		}
		r.Close()
		r2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after publish: %v", err)
		}
		if r2.Generation() != gen+1 {
			t.Fatalf("reopened generation %d, want %d", r2.Generation(), gen+1)
		}
		r2.Close()
	})
}

// TestRegenFuzzRulesetJournalCorpus writes the committed seed corpus when
// REGEN_FUZZ_CORPUS=1.
func TestRegenFuzzRulesetJournalCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate")
	}
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range []string{
		`alert tcp any any -> any any (msg:"one"; content:"abc"; sid:10; rev:1;)`,
		`alert tcp any any -> any any (msg:"two"; content:"def"; sid:11; rev:2;)`,
	} {
		if _, err := r.Publish([]rules.DatedRule{datedRule(t, raw, earlyPub.AddDate(0, i, 0))}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	b, err := os.ReadFile(filepath.Join(dir, "ruleset.journal"))
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		{},
		journalMagic[:],
		b,
		b[:len(b)-5],
		append(append([]byte{}, b...), 0xde, 0xad, 0xbe, 0xef),
	}
	fuzzcorpus.Write(t, "FuzzRulesetJournal", seeds)
}
