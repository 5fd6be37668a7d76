package ingest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// writeImpairedSegment renders sessions to frames, pushes them through the
// impairment profile, and writes the damaged capture as one standalone
// segment — the shape a sensor behind a lossy tap would actually produce.
func writeImpairedSegment(t testing.TB, path string, sessions []tcpasm.Session, profile netsim.Profile) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "clean.pcap")
	writeSegmentFile(t, tmp, sessions)
	clean, err := pcapio.OpenFiles(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	src := netsim.Impair(clean, profile)

	w, err := pcapio.NewRotatingWriter(filepath.Dir(path), "tmp-impair", pcapio.LinkTypeEthernet, 1<<40, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(p.Timestamp, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files := w.Files()
	if len(files) != 1 {
		t.Fatalf("impaired capture rotated into %d segments, want 1", len(files))
	}
	if err := os.Rename(files[0], path); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineImpairedCaptureResume: the checkpoint-restart contract must
// survive a damaged capture. Duplicated and reordered frames mean the tailer
// re-sees byte ranges that reassembly already integrated; a restart from the
// checkpoint must still ingest each segment exactly once — the store ends up
// identical to a batch scan of the same damaged files, with no double-stored
// events and no phantom ambiguity from agreeing retransmits.
func TestPipelineImpairedCaptureResume(t *testing.T) {
	watch, storeDir := t.TempDir(), t.TempDir()
	sessions := testSessions(160)
	profile := netsim.Profile{Seed: 21, DupProb: 0.25, ReorderProb: 0.15, ReorderSpan: 2, LossProb: 0.03}
	seg := func(i int) string {
		return filepath.Join(watch, fmt.Sprintf("dscope-%06d.pcap", i))
	}
	writeImpairedSegment(t, seg(1), sessions[:40], profile)
	writeImpairedSegment(t, seg(2), sessions[40:80], profile)

	runOnce := func() (int, Metrics) {
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
		return mustSnapshot(t, store).Len(), p.Metrics()
	}

	first, m := runOnce()
	if first == 0 {
		t.Fatal("first run stored nothing from the impaired capture")
	}
	if m.AmbiguousSessions != 0 {
		t.Fatalf("agreeing duplicates flagged %d sessions ambiguous", m.AmbiguousSessions)
	}
	// Idle restart: the checkpoint must prevent any re-ingest of the damaged
	// segments — re-feeding duplicated frames would double-store events.
	if again, _ := runOnce(); again != first {
		t.Fatalf("idle restart changed the store: %d -> %d events", first, again)
	}
	// More impaired segments land while the daemon is down; the resumed
	// pipeline ingests exactly those.
	writeImpairedSegment(t, seg(3), sessions[80:120], profile)
	writeImpairedSegment(t, seg(4), sessions[120:], profile)
	resumed, _ := runOnce()

	src, err := pcapio.OpenFiles(seg(1), seg(2), seg(3), seg(4))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	batchEvents, _, err := ids.ScanCapture(src, testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(batchEvents) == 0 {
		t.Fatal("batch scan of impaired segments matched nothing")
	}
	if resumed != len(batchEvents) {
		t.Fatalf("after resume store has %d events, batch scan of the impaired segments gives %d",
			resumed, len(batchEvents))
	}
}
