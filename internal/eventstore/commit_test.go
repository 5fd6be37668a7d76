package eventstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/ids"
)

// TestCommitBoundsRecovery is the group-commit crash contract: a second
// store opened over the same directory (the files as a crashed process left
// them) recovers exactly the committed cut — appends after the last commit
// are truncated away even though their frames are intact on disk.
func TestCommitBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var first, second []ids.Event
	for i := 0; i < 30; i++ {
		first = append(first, testEvent(i))
		second = append(second, testEvent(100+i))
	}
	if err := st.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	meta := []byte("wm:sensor-a=7")
	if err := st.Commit(meta); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(second); err != nil {
		t.Fatal(err)
	}
	// Crash: no Commit, no Close. The file writes are visible (the OS
	// survived), but nothing promised them durable.
	crashed, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if got := crashed.Len(); got != len(first) {
		t.Fatalf("recovered %d events, want only the committed %d", got, len(first))
	}
	if got := crashed.CommitMeta(); !bytes.Equal(got, meta) {
		t.Fatalf("recovered meta %q, want %q", got, meta)
	}
	// The truncated events were never half-kept: re-appending and committing
	// them lands the full set.
	if err := crashed.AppendBatch(second); err != nil {
		t.Fatal(err)
	}
	if err := crashed.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := crashed.Len(); got != len(first)+len(second) {
		t.Fatalf("after redelivery: %d events, want %d", got, len(first)+len(second))
	}
	if got := crashed.CommitMeta(); !bytes.Equal(got, meta) {
		t.Fatalf("Commit(nil) clobbered meta: %q", got)
	}
}

// TestCommitMetaSurvivesSyncAndClose: Sync and Close are meta-preserving
// commits, and the meta round-trips through reopen.
func TestCommitMetaSurvivesSyncAndClose(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := []byte{0x01, 0x00, 0xff, 'x'}
	if err := st.Commit(meta); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.CommitMeta(); !bytes.Equal(got, meta) {
		t.Fatalf("meta %q after reopen, want %q", got, meta)
	}
	if st2.Len() != 1 {
		t.Fatalf("%d events after reopen", st2.Len())
	}
}

// TestCrashBeforeFirstCommitDropsAppends: the recovery contract holds even
// when the crash lands before the first commit record ever did. A fresh
// store's journal is sealed at Open, so appended-but-uncommitted frames a
// crash leaves on disk (the page cache flushes on its own schedule) are
// truncated rather than adopted by the no-journal legacy fallback. Without
// the seal, recovery resurrected those frames with no commit meta covering
// them, and a redelivering sensor applied the batch twice.
func TestCrashBeforeFirstCommitDropsAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var batch []ids.Event
	for i := 0; i < 12; i++ {
		batch = append(batch, testEvent(i))
	}
	if err := st.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Crash: no Commit, no Close. The appended frames are intact on disk but
	// nothing ever promised them durable.
	re, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 0 {
		t.Fatalf("recovered %d uncommitted events, want 0", got)
	}
	// Redelivery lands the batch exactly once.
	if err := re.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := re.Len(); got != len(batch) {
		t.Fatalf("after redelivery: %d events, want %d", got, len(batch))
	}
}

// TestLegacyStoreWithoutJournalAdoptsAll: a store written before group
// commit (no COMMITS.log) recovers every intact record, the old contract.
func TestLegacyStoreWithoutJournalAdoptsAll(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Append(testEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, commitLogName)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 20 {
		t.Fatalf("legacy recovery found %d events, want 20", st2.Len())
	}
}

// TestCommitSkipsCleanShards: a commit after appends that touched one shard
// fsyncs and re-journals, but a commit with nothing new is free (no new
// journal record), and synced watermarks only advance for dirty shards.
func TestCommitSkipsCleanShards(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Commit([]byte("m")); err != nil {
		t.Fatal(err)
	}
	size0 := st.cj.log.Size()
	// All events share one CVE, so exactly one shard dirties.
	ev := testEvent(0)
	ev.CVE = "2021-44228"
	if err := st.AppendBatch([]ids.Event{ev, ev, ev}); err != nil {
		t.Fatal(err)
	}
	var dirtyBefore int
	for _, sh := range st.shards {
		sh.mu.Lock()
		if sh.log.Size() > sh.synced {
			dirtyBefore++
		}
		sh.mu.Unlock()
	}
	if dirtyBefore != 1 {
		t.Fatalf("%d dirty shards after a one-CVE batch, want 1", dirtyBefore)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	size1 := st.cj.log.Size()
	if size1 <= size0 {
		t.Fatal("dirty commit wrote no journal record")
	}
	for i, sh := range st.shards {
		sh.mu.Lock()
		if sh.log.Size() != sh.synced {
			t.Errorf("shard %d still dirty after commit", i)
		}
		sh.mu.Unlock()
	}
	// Idle commit: nothing dirty, same meta — must not grow the journal.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if st.cj.log.Size() != size1 {
		t.Fatal("idle Sync wrote a journal record")
	}
}

// TestConcurrentShardAppendsAndCommits is the race-detector test for the
// group-commit hot path: many goroutines appending batches routed across
// shards while a committer loop runs Commit and readers take snapshots.
func TestConcurrentShardAppendsAndCommits(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const writers, perWriter, per = 8, 40, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				batch := make([]ids.Event, per)
				for j := range batch {
					batch[j] = testEvent(w*10000 + i*per + j)
				}
				if err := st.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Commit([]byte("race")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	if err := st.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != writers*perWriter*per {
		t.Fatalf("%d events, want %d", got, writers*perWriter*per)
	}
}

// TestCommitJournalCompactAbortLeaksNothing drives journal compaction into
// each failure branch (tmp create, write, fsync, rename) and asserts every
// abort leaves no stranded COMMITS.log.tmp and no leaked handle, and that
// the journal still accepts commits afterwards.
func TestCommitJournalCompactAbortLeaksNothing(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	st, err := Open("store", Options{Shards: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit([]byte("meta")); err != nil {
		t.Fatal(err)
	}
	baseline := fs.OpenHandles()
	for _, op := range []string{"open", "write", "sync", "rename"} {
		fs.FailWith(func(o, name string) error {
			if o == op && strings.HasSuffix(name, ".tmp") {
				return fault.ErrInjected
			}
			return nil
		})
		if err := st.cj.compact(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("compact with %s fault: err=%v, want injected", op, err)
		}
		for _, name := range fs.Files() {
			if strings.HasSuffix(name, ".tmp") {
				t.Fatalf("compact aborted at %s stranded %s", op, name)
			}
		}
		if got := fs.OpenHandles(); got != baseline {
			t.Fatalf("compact aborted at %s leaked handles: %d, want %d", op, got, baseline)
		}
	}
	fs.FailWith(nil)
	if err := st.cj.compact(); err != nil {
		t.Fatalf("compact after faults cleared: %v", err)
	}
	if err := st.Append(testEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit([]byte("meta2")); err != nil {
		t.Fatalf("commit after compaction: %v", err)
	}
}
