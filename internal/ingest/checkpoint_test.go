package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
)

// TestSaveCheckpointAbortLeaksNothing drives the checkpoint's
// write-tmp/fsync/rename dance into each failure branch and asserts every
// abort leaves no stranded INGEST-*.tmp and no leaked handle, the previous
// checkpoint still loads, and the save succeeds once the fault clears.
func TestSaveCheckpointAbortLeaksNothing(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	p := &Pipeline{cfg: Config{CheckpointDir: "ckpt", Prefix: "cap", FS: fs}}
	prev := checkpoint{Segment: "cap-000.pcap", Offset: 24}
	if err := p.saveCheckpoint(prev); err != nil {
		t.Fatal(err)
	}
	next := checkpoint{Segment: "cap-001.pcap", Offset: 512}
	for _, op := range []string{"open", "write", "sync", "rename"} {
		fs.FailWith(func(o, name string) error {
			if o == op && strings.HasSuffix(name, ".tmp") {
				return fault.ErrInjected
			}
			return nil
		})
		if err := p.saveCheckpoint(next); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("save with %s fault: err=%v, want injected", op, err)
		}
		for _, name := range fs.Files() {
			if strings.HasSuffix(name, ".tmp") {
				t.Fatalf("save aborted at %s stranded %s", op, name)
			}
		}
		if got := fs.OpenHandles(); got != 0 {
			t.Fatalf("save aborted at %s leaked %d handles", op, got)
		}
		// The failed save must not have clobbered the durable checkpoint.
		if ck, ok := p.loadCheckpoint(); !ok || ck != prev {
			t.Fatalf("after failed save at %s: loaded %+v ok=%v, want %+v", op, ck, ok, prev)
		}
	}
	fs.FailWith(nil)
	if err := p.saveCheckpoint(next); err != nil {
		t.Fatalf("save after faults cleared: %v", err)
	}
	if ck, ok := p.loadCheckpoint(); !ok || ck != next {
		t.Fatalf("loaded %+v ok=%v, want %+v", ck, ok, next)
	}
}

// blockingSink is a store whose first AppendBatch after arming blocks until
// release is closed.
type blockingSink struct {
	*eventstore.Store
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSink) AppendBatch(events []ids.Event) error {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.Store.AppendBatch(events)
}

// TestCheckpointWaitsForInFlightBatches: the checkpoint never runs ahead of
// a batch the sink has not applied. One batch's AppendBatch blocks while the
// pipeline catches up and reaches an idle flush; INGEST-dscope must still
// hold the position from before that batch. Once the batch is released the
// checkpoint reaches the end of the capture, and a pipeline resumed from it
// re-ingests nothing.
func TestCheckpointWaitsForInFlightBatches(t *testing.T) {
	watch, storeDir := t.TempDir(), t.TempDir()
	sessions := testSessions(100)
	seg := func(i int) string { return filepath.Join(watch, fmt.Sprintf("dscope-%06d.pcap", i)) }
	ckptAt := func(i int) string {
		info, err := os.Stat(seg(i))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("dscope-%06d.pcap %d\n", i, info.Size())
	}
	ckpt := filepath.Join(storeDir, "INGEST-dscope")
	readCkpt := func() string {
		b, _ := os.ReadFile(ckpt)
		return string(b)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	store, err := eventstore.Open(storeDir, eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sink := &blockingSink{Store: store, entered: make(chan struct{}), release: make(chan struct{})}
	cfg := Config{
		Dir: watch, Engine: testEngine(t), Store: store, Sink: sink,
		PollInterval: time.Millisecond, FlushIdle: 5 * time.Millisecond,
		BatchSessions: 16, MatchWorkers: 4,
	}
	writeSegmentFile(t, seg(1), sessions[:40])
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first := ckptAt(1)
	waitFor("the first segment's checkpoint", func() bool { return readCkpt() == first })

	// The second segment's 60 sessions make three full batches and a
	// partial one, which only the idle flush submits; the first of them
	// to be delivered blocks in the sink.
	sink.armed.Store(true)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(sink.release) }) }
	defer release()
	writeSegmentFile(t, seg(2), sessions[40:])
	waitFor("a blocked delivery", func() bool {
		select {
		case <-sink.entered:
			return true
		default:
			return false
		}
	})
	waitFor("the idle flush's partial batch", func() bool {
		m := p.Metrics()
		return m.Sessions == uint64(len(sessions)) && m.PendingSessions == 0 && m.PendingBytes == 0
	})
	// No event marks a save that does not happen: give the idle flush, which
	// follows the cut at once, many periods to (wrongly) persist.
	time.Sleep(20 * cfg.FlushIdle)
	if got := readCkpt(); got != first {
		t.Fatalf("checkpoint %q moved past a batch still in delivery (was %q)", got, first)
	}

	release()
	last := ckptAt(2)
	waitFor("the final checkpoint", func() bool { return readCkpt() == last })
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	stored := mustSnapshot(t, store).Len()

	cfg.Sink = nil
	p2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if m := p2.Metrics(); m.Sessions != 0 || mustSnapshot(t, store).Len() != stored {
		t.Fatalf("resume re-ingested %d sessions: %d -> %d events", m.Sessions, stored, mustSnapshot(t, store).Len())
	}
}
