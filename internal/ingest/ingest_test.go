package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
)

func testEngine(t testing.TB) *ids.Engine {
	t.Helper()
	texts := []string{
		`alert tcp any any -> any any (msg:"jndi"; content:"${jndi:"; nocase; reference:cve,2021-44228; sid:1;)`,
		`alert tcp any any -> any any (msg:"ognl"; content:"/%24%7B"; http_uri; reference:cve,2022-26134; sid:2;)`,
		`alert tcp any any -> any any (msg:"hik"; content:"/SDK/webLanguage"; http_uri; reference:cve,2021-36260; sid:3;)`,
	}
	var rs []rules.DatedRule
	for i, text := range texts {
		r, err := rules.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, rules.DatedRule{Rule: r, Published: time.Date(2021, 12, 1+i, 0, 0, 0, 0, time.UTC)})
	}
	return ids.NewEngine(rs, ids.Config{PortInsensitive: true})
}

func testSessions(n int) []tcpasm.Session {
	payloads := []string{
		"GET /?x=${jndi:ldap://e} HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /%24%7B(x)%7D/ HTTP/1.1\r\nHost: h\r\n\r\n",
		"PUT /SDK/webLanguage HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /robots.txt HTTP/1.1\r\nHost: h\r\n\r\n", // noise
	}
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	out := make([]tcpasm.Session, n)
	for i := range out {
		out[i] = tcpasm.Session{
			Client:     packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("203.0.%d.%d", i/200%200, i%200+1)), Port: uint16(30000 + i%1000)},
			Server:     packet.Endpoint{Addr: packet.MustAddr("18.204.0.9"), Port: 8080},
			Start:      base.Add(time.Duration(i) * time.Second),
			ClientData: []byte(payloads[i%len(payloads)]),
			Complete:   true,
			Closed:     true,
		}
	}
	return out
}

func writeSegments(t testing.TB, dir, prefix string, sessions []tcpasm.Session, maxBytes int64) []string {
	t.Helper()
	rw, err := pcapio.NewRotatingWriter(dir, prefix, pcapio.LinkTypeEthernet, maxBytes, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := telescope.SessionsToPcap(sessions, rw, 1); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return rw.Files()
}

// eventKey gives events an order- and representation-independent identity.
func eventKey(ev ids.Event) string {
	return fmt.Sprintf("%d|%s|%s|%d|%s|%d",
		ev.Time.UnixNano(), ev.Src, ev.Dst, ev.SID, ev.CVE, ev.Bytes)
}

func collectKeys(events []ids.Event) map[string]int {
	m := make(map[string]int, len(events))
	for _, ev := range events {
		m[eventKey(ev)]++
	}
	return m
}

// TestPipelineMatchesBatchScan replays a pre-written rotated capture
// through the streaming pipeline and asserts the stored events are exactly
// the batch ScanCapture result for the same files.
func TestPipelineMatchesBatchScan(t *testing.T) {
	dir := t.TempDir()
	engine := testEngine(t)
	sessions := testSessions(300)
	files := writeSegments(t, dir, "dscope", sessions, 64<<10)
	if len(files) < 3 {
		t.Fatalf("only %d segments; lower maxBytes", len(files))
	}

	// Batch truth.
	src, err := pcapio.OpenFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	batchEvents, batchStats, err := ids.ScanCapture(src, testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(batchEvents) == 0 {
		t.Fatal("batch scan found nothing; fixture broken")
	}

	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p, err := Start(Config{
		Dir: dir, Prefix: "dscope", Engine: engine, Store: store,
		PollInterval: 5 * time.Millisecond, FlushIdle: 50 * time.Millisecond,
		BatchSessions: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !p.Metrics().Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never went idle: %+v", p.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	sn := mustSnapshot(t, store)
	got, want := collectKeys(sn.Events()), collectKeys(batchEvents)
	if len(got) != len(want) {
		t.Fatalf("stored %d distinct events, batch %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("event %s: stored %d, batch %d", k, got[k], n)
		}
	}
	m := p.Metrics()
	if m.Packets != uint64(batchStats.Packets) {
		t.Fatalf("packets %d, batch saw %d", m.Packets, batchStats.Packets)
	}
	if m.Sessions != uint64(batchStats.Sessions) {
		t.Fatalf("sessions %d, batch saw %d", m.Sessions, batchStats.Sessions)
	}
	if m.SegmentsDone != uint64(len(files)) {
		t.Fatalf("segments done %d, want %d", m.SegmentsDone, len(files))
	}
	if int(m.Events) != len(batchEvents) {
		t.Fatalf("events %d, want %d", m.Events, len(batchEvents))
	}
}

// TestPipelineTailsLiveWriter starts the pipeline on an empty directory and
// writes the capture concurrently, the daemon's real deployment shape.
func TestPipelineTailsLiveWriter(t *testing.T) {
	dir := t.TempDir()
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p, err := Start(Config{
		Dir: dir, Engine: testEngine(t), Store: store,
		PollInterval: 2 * time.Millisecond, FlushIdle: 50 * time.Millisecond,
		BatchSessions: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	sessions := testSessions(240)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rw, err := pcapio.NewRotatingWriter(dir, "dscope", pcapio.LinkTypeEthernet, 32<<10, pcapio.WithNanoPrecision())
		if err != nil {
			t.Error(err)
			return
		}
		// Trickle sessions in small bursts so the tailer genuinely tails.
		for i := 0; i < len(sessions); i += 40 {
			end := i + 40
			if end > len(sessions) {
				end = len(sessions)
			}
			if err := telescope.SessionsToPcap(sessions[i:end], rw, 1); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := rw.Close(); err != nil {
			t.Error(err)
		}
	}()
	<-writerDone
	deadline := time.Now().Add(30 * time.Second)
	for !p.Metrics().Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never idle: %+v", p.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// 3 of every 4 fixture payloads match a rule.
	if got := mustSnapshot(t, store).Len(); got != 180 {
		t.Fatalf("stored %d events, want 180", got)
	}
	if p.Metrics().DecodeErrors != 0 {
		t.Fatalf("decode errors: %+v", p.Metrics())
	}
}

// TestPipelineSkipsTornFinalSegment: a crash-torn last segment must not
// wedge the pipeline — complete records are ingested, the torn tail is
// counted and skipped at drain.
func TestPipelineSkipsTornFinalSegment(t *testing.T) {
	dir := t.TempDir()
	sessions := testSessions(60)
	files := writeSegments(t, dir, "dscope", sessions, 32<<10)
	last := files[len(files)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p, err := Start(Config{
		Dir: dir, Engine: testEngine(t), Store: store,
		PollInterval: 2 * time.Millisecond, FlushIdle: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close drains: the torn tail is unrecoverable and skipped.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if m.SkippedBytes == 0 {
		t.Fatalf("torn tail not counted: %+v", m)
	}
	if !m.Idle() {
		t.Fatalf("pipeline not idle after drain: %+v", m)
	}
	if mustSnapshot(t, store).Len() == 0 {
		t.Fatal("no events recovered from intact records")
	}
}

// writeSegmentFile writes sessions as one standalone segment file, so tests
// can control exactly which sessions land in which segment.
func writeSegmentFile(t testing.TB, path string, sessions []tcpasm.Session) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcapio.NewWriter(f, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := telescope.SessionsToPcap(sessions, w, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineResumesFromCheckpoint: a restarted pipeline must pick up
// where the drained one stopped — no re-ingesting (and double-storing) the
// capture it already consumed, while still ingesting segments that appeared
// in between.
func TestPipelineResumesFromCheckpoint(t *testing.T) {
	watch, storeDir := t.TempDir(), t.TempDir()
	sessions := testSessions(200)
	seg := func(i int) string {
		return filepath.Join(watch, fmt.Sprintf("dscope-%06d.pcap", i))
	}
	writeSegmentFile(t, seg(1), sessions[:50])
	writeSegmentFile(t, seg(2), sessions[50:100])

	runOnce := func() int {
		t.Helper()
		store, err := eventstore.Open(storeDir, eventstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		p, err := Start(Config{
			Dir: watch, Engine: testEngine(t), Store: store,
			PollInterval: 2 * time.Millisecond, FlushIdle: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return mustSnapshot(t, store).Len()
	}

	first := runOnce()
	if first == 0 {
		t.Fatal("first run stored nothing")
	}
	// Restart with nothing new: the checkpoint must prevent any re-ingest.
	if again := runOnce(); again != first {
		t.Fatalf("idle restart changed the store: %d -> %d events", first, again)
	}
	// Two more segments appear while the daemon is down; a restart ingests
	// exactly those.
	writeSegmentFile(t, seg(3), sessions[100:150])
	writeSegmentFile(t, seg(4), sessions[150:])
	resumed := runOnce()

	src, err := pcapio.OpenFiles(seg(1), seg(2), seg(3), seg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	batchEvents, _, err := ids.ScanCapture(src, testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if resumed != len(batchEvents) {
		t.Fatalf("after resume store has %d events, batch scan of all segments gives %d",
			resumed, len(batchEvents))
	}
}

// TestPipelineCheckpointsAtIdleFlush: the checkpoint must be persisted at
// idle-flush points while the pipeline is running — not only on Close — so a
// hard crash (kill -9) re-ingests just the window since the last flush
// instead of the whole capture (which, through a fleet shipper, would land
// as duplicates the coordinator cannot recognize).
func TestPipelineCheckpointsAtIdleFlush(t *testing.T) {
	watch, storeDir := t.TempDir(), t.TempDir()
	sessions := testSessions(100)
	writeSegmentFile(t, filepath.Join(watch, "dscope-000001.pcap"), sessions)

	store, err := eventstore.Open(storeDir, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p, err := Start(Config{
		Dir: watch, Engine: testEngine(t), Store: store,
		PollInterval: 2 * time.Millisecond, FlushIdle: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(storeDir, "INGEST-dscope")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(ckpt); err == nil && len(b) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written while running; only Close persists it")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The mid-run checkpoint must be exact: a pipeline resumed from it (as
	// after a crash) ingests nothing it already stored.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	before := mustSnapshot(t, store).Len()
	if before == 0 {
		t.Fatal("nothing stored")
	}
	p2, err := Start(Config{
		Dir: watch, Engine: testEngine(t), Store: store,
		PollInterval: 2 * time.Millisecond, FlushIdle: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if after := mustSnapshot(t, store).Len(); after != before {
		t.Fatalf("resume re-ingested: %d -> %d events", before, after)
	}
}

func TestStartValidation(t *testing.T) {
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Start(Config{Dir: t.TempDir()}); err == nil {
		t.Error("missing engine/store accepted")
	}
	if _, err := Start(Config{Engine: testEngine(t), Store: store}); err == nil {
		t.Error("missing dir accepted")
	}
	if _, err := Start(Config{Dir: "/does/not/exist", Engine: testEngine(t), Store: store}); err == nil {
		t.Error("nonexistent dir accepted")
	}
}

// TestPipelineCountsDecodeErrors: a capture carrying one frame per decode
// error class, spread over rotated segments, reports exactly the serial
// scan's decode errors at every shard width — the shards decode the raw
// frames the tailer routes, and Metrics sums their counts.
func TestPipelineCountsDecodeErrors(t *testing.T) {
	dir := t.TempDir()
	rw, err := pcapio.NewRotatingWriter(dir, "dscope", pcapio.LinkTypeEthernet, 16<<10, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := packet.NewBuilder(8).Build(packet.Segment{
		Src:   packet.Endpoint{Addr: packet.MustAddr("192.0.2.200"), Port: 3333},
		Dst:   packet.Endpoint{Addr: packet.MustAddr("18.204.0.9"), Port: 8080},
		Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("GET / HTTP/1.0\r\n\r\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sessions := testSessions(140)
	bad := packet.MalformedFrames(valid)
	for i, frame := range bad {
		chunk := sessions[i*20 : (i+1)*20]
		if err := telescope.SessionsToPcap(chunk, rw, 1); err != nil {
			t.Fatal(err)
		}
		if err := rw.WritePacket(chunk[len(chunk)-1].Start.Add(time.Second), frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	files := rw.Files()
	src, err := pcapio.OpenFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ids.ScanCapture(src, testEngine(t))
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.DecodeErrors != len(bad) || len(files) < 2 {
		t.Fatalf("weak fixture: %d decode errors over %d segments", want.DecodeErrors, len(files))
	}

	for _, shards := range []int{1, 3, 8} {
		store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Start(Config{
			Dir: dir, Prefix: "dscope", Engine: testEngine(t), Store: store,
			PollInterval: 5 * time.Millisecond, FlushIdle: 50 * time.Millisecond,
			DecodeShards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Close()
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		m := p.Metrics()
		if m.DecodeErrors != uint64(want.DecodeErrors) || m.Packets != uint64(want.Packets) {
			t.Errorf("shards %d: decode errors %d of %d packets, serial scan %d of %d",
				shards, m.DecodeErrors, m.Packets, want.DecodeErrors, want.Packets)
		}
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
