package fleet

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// The two tests below interleave failed and successful appends under torn
// writes, then crash. A failed append that is not rolled back leaves garbage
// mid-file; every later append lands behind it and reports success, but
// recovery's frame scan stops at the garbage — so acknowledged records
// vanish. Both journals lost records this way before they wrote through
// wal.Log.Append.

// TestWatermarksTornAppendThenSuccess: every acknowledged advance survives a
// crash, however many torn appends preceded it. A regressed watermark lets a
// redelivered batch apply twice.
func TestWatermarksTornAppendThenSuccess(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fs := fault.NewSimFS(seed, fault.Profile{TornWrite: 0.3})
		open := func() *Watermarks {
			t.Helper()
			for try := 0; ; try++ {
				w, err := OpenWatermarksFS(fs, "wm")
				if err == nil {
					return w
				}
				if try == 20 {
					t.Fatalf("seed %d: open: %v", seed, err)
				}
			}
		}
		w := open()
		var acked, failed uint64
		for seq := uint64(1); seq <= 20; seq++ {
			if err := w.AdvanceAll(map[string]uint64{"s1": seq}); err != nil {
				failed++
				continue
			}
			acked = seq
		}
		if failed == 0 || acked == 0 {
			t.Fatalf("seed %d: %d failed, acked %d: the schedule exercised nothing", seed, failed, acked)
		}
		fs.Crash()
		fs.Restart()
		w = open()
		if got := w.Get("s1"); got != acked {
			t.Errorf("seed %d: recovered watermark %d after %d was acknowledged (%d torn appends)", seed, got, acked, failed)
		}
		w.Close()
	}
}

// TestSpoolTornAppendThenSuccess: every batch added before a successful Sync
// is recovered after a crash. A spool that forgets synced batches silently
// drops events no coordinator has seen.
func TestSpoolTornAppendThenSuccess(t *testing.T) {
	events := testEvents(t, 3)
	for seed := int64(1); seed <= 8; seed++ {
		fs := fault.NewSimFS(seed, fault.Profile{TornWrite: 0.3})
		open := func() *spool {
			t.Helper()
			for try := 0; ; try++ {
				sp, err := openSpool(fs, "spool")
				if err == nil {
					return sp
				}
				if try == 20 {
					t.Fatalf("seed %d: open: %v", seed, err)
				}
			}
		}
		sp := open()
		var added []uint64
		failed := 0
		for i := 0; i < 20; i++ {
			seq, err := sp.Add(events)
			if err != nil {
				failed++
				continue
			}
			added = append(added, seq)
		}
		if failed == 0 || len(added) == 0 {
			t.Fatalf("seed %d: %d failed, %d added: the schedule exercised nothing", seed, failed, len(added))
		}
		if err := sp.Sync(); err != nil {
			t.Fatalf("seed %d: sync: %v", seed, err)
		}
		fs.Crash()
		fs.Restart()
		sp = open()
		last := added[len(added)-1]
		if got := sp.LastSeq(); got != last {
			t.Errorf("seed %d: reopened with LastSeq %d after syncing through %d (%d torn appends)", seed, got, last, failed)
		}
		for _, seq := range added {
			if b, ok := sp.NextAfter(seq - 1); !ok || b.seq != seq || len(b.events()) != len(events) {
				t.Errorf("seed %d: synced batch %d not recovered (got seq %d, ok=%v)", seed, seq, b.seq, ok)
				break
			}
		}
		for _, name := range fs.Files() {
			if strings.HasSuffix(name, ".tmp") {
				t.Errorf("seed %d: stranded %s", seed, name)
			}
		}
		sp.Close()
	}
}

// TestWatermarksSyncFailThenSuccess: an advance whose fsync fails is reported
// failed and rolled back; the acknowledged advance after it survives a crash.
func TestWatermarksSyncFailThenSuccess(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	w, err := OpenWatermarksFS(fs, "wm")
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	fs.FailWith(func(op, name string) error {
		if !fired && op == "sync" {
			fired = true
			return fault.ErrInjected
		}
		return nil
	})
	if err := w.AdvanceAll(map[string]uint64{"s1": 1}); err == nil {
		t.Fatal("advance with a failed fsync reported success")
	}
	if got := w.Get("s1"); got != 0 {
		t.Fatalf("watermark %d after a failed advance", got)
	}
	if err := w.AdvanceAll(map[string]uint64{"s1": 2, "s2": 7}); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	w, err = OpenWatermarksFS(fs, "wm")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.All(); len(got) != 2 || got["s1"] != 2 || got["s2"] != 7 {
		t.Fatalf("recovered marks %v, want the acknowledged s1=2 s2=7", got)
	}
}
