package eventstore

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ids"
)

// failOnce arms fs to fail the next op on a file whose name ends in suffix,
// exactly once.
func failOnce(fs *fault.SimFS, op, suffix string) {
	fired := false
	fs.FailWith(func(o, name string) error {
		if !fired && o == op && strings.HasSuffix(name, suffix) {
			fired = true
			return fault.ErrInjected
		}
		return nil
	})
}

// TestAmendmentsSyncFailThenSuccess: an AppendAmendments whose fsync fails is
// reported failed and leaves the log at its previous boundary, so the
// acknowledged appends after it — including one that follows a later failed
// write, whose rollback must not cut into them — all survive a crash.
func TestAmendmentsSyncFailThenSuccess(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	st, err := Open("store", Options{Shards: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ev := testEvent(0)
	amend := func(gen uint64) []Amendment {
		return []Amendment{amendFor(ev, 900000+int(gen), ev.Published.AddDate(-1, 0, 0), "2020-0001", gen)}
	}
	failOnce(fs, "sync", "amend.log")
	if err := st.AppendAmendments(amend(1)); err == nil {
		t.Fatal("append with a failed fsync reported success")
	}
	if err := st.AppendAmendments(amend(2)); err != nil {
		t.Fatal(err)
	}
	failOnce(fs, "write", "amend.log")
	if err := st.AppendAmendments(amend(3)); err == nil {
		t.Fatal("append with a failed write reported success")
	}
	if err := st.AppendAmendments(amend(4)); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	st, err = Open("store", Options{Shards: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var gens []uint64
	for _, a := range st.Amendments() {
		gens = append(gens, a.Gen)
	}
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 4 {
		t.Fatalf("recovered amendment generations %v, want the acknowledged [2 4]", gens)
	}
}

// TestCommitSyncFailThenSuccess: a Commit whose journal fsync fails is dropped
// from the chain; the next Commit's record is the recovery point after a
// crash.
func TestCommitSyncFailThenSuccess(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	st, err := Open("store", Options{Shards: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Append(testEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	failOnce(fs, "sync", commitLogName)
	if err := st.Commit([]byte("one")); err == nil {
		t.Fatal("commit with a failed journal fsync reported success")
	}
	if err := st.Append(testEvent(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit([]byte("two")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	st, err = Open("store", Options{Shards: 2, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := string(st.CommitMeta()); got != "two" {
		t.Fatalf("recovered commit meta %q, want the acknowledged %q", got, "two")
	}
	if st.Len() != 5 {
		t.Fatalf("recovered %d events, want the 5 committed", st.Len())
	}
}

// TestFailedBatchRollbackFailureStaysUncommitted: a multi-shard batch whose
// k-th shard write fails while the disk also refuses every truncate (EIO,
// ENOSPC) leaves earlier shards holding the batch's intact frames in their
// files. The batch was reported failed, so a later commit record must not
// cover those frames — or recovery keeps them and the redelivered batch
// applies twice — even when the page cache flushes them on its own.
func TestFailedBatchRollbackFailureStaysUncommitted(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	st, err := Open("store", Options{Shards: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	base := []ids.Event{testEvent(0), testEvent(1), testEvent(2)}
	if err := st.AppendBatch(base); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit([]byte("base")); err != nil {
		t.Fatal(err)
	}
	var batch []ids.Event
	touched := map[int]bool{}
	for i := 10; i < 20; i++ {
		ev := testEvent(i)
		touched[st.shardFor(&ev)] = true
		batch = append(batch, ev)
	}
	if len(touched) < 2 {
		t.Fatalf("batch touches %d shards; the test needs a sibling to roll back", len(touched))
	}
	writes := 0
	fs.FailWith(func(op, name string) error {
		if !strings.Contains(name, "events-") {
			return nil
		}
		switch op {
		case "write":
			if writes++; writes == 2 {
				return fault.ErrTorn
			}
		case "truncate":
			return fault.ErrInjected
		}
		return nil
	})
	if err := st.AppendBatch(batch); err == nil {
		t.Fatal("batch with a failed shard write reported success")
	}
	fs.FailWith(nil)
	if st.Len() != len(base) {
		t.Fatalf("failed batch left %d events readable, want %d", st.Len(), len(base))
	}
	// The unrolled-back bytes reach the platter regardless of any commit.
	for _, sh := range st.shards {
		if err := sh.log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(batch); err == nil {
		t.Fatal("append into a poisoned shard reported success")
	}
	fs.Crash()
	fs.Restart()
	st, err = Open("store", Options{Shards: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := string(st.CommitMeta()); got != "after" {
		t.Fatalf("recovered commit meta %q, want %q", got, "after")
	}
	got := mustSnapshot(t, st).Events()
	if len(got) != len(base) {
		t.Fatalf("recovered %d events, want only the %d acknowledged; the failed batch came back", len(got), len(base))
	}
	// After recovery truncated the leftovers, the redelivered batch lands once.
	if err := st.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(base)+len(batch) {
		t.Fatalf("after redelivery: %d events, want %d", st.Len(), len(base)+len(batch))
	}
}
