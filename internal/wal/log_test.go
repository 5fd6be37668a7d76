package wal

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/fault"
)

var testMagic = [8]byte{'W', 'A', 'L', 'T', 'E', 'S', 'T', '\n'}

const (
	testPath = "d/test.log"
	testMax  = 64
)

// openCollect opens the test log, returning the records replayed.
func openCollect(fs fault.FS) (*Log, []string, error) {
	var got []string
	l, err := Open(fs, testPath, testMagic, testMax, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return l, got, err
}

func frame(rec string) []byte { return AppendFrame(nil, []byte(rec)) }

func writeRaw(t *testing.T, fs *fault.SimFS, raw []byte) {
	t.Helper()
	if err := fs.WriteFile(testPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func isPrefix(got, of []string) bool {
	if len(got) > len(of) {
		return false
	}
	for i := range got {
		if got[i] != of[i] {
			return false
		}
	}
	return true
}

// TestOpenKeepsTruncatesRefuses walks the recovery rule case by case.
func TestOpenKeepsTruncatesRefuses(t *testing.T) {
	good := append(append(testMagic[:8:8], frame("one")...), frame("two")...)
	oversized := AppendFrame(good[:len(good):len(good)], make([]byte, testMax+1))
	for _, tc := range []struct {
		name   string
		raw    []byte
		want   []string // nil with refuse=false means an empty log
		size   int      // recovered size
		refuse bool
	}{
		{name: "empty file reinitializes", raw: nil, size: 8},
		{name: "magic prefix reinitializes", raw: testMagic[:5], size: 8},
		{name: "short foreign file refused", raw: []byte("abc"), refuse: true},
		{name: "wrong magic refused", raw: append([]byte("NOTMAGIC"), frame("one")...), refuse: true},
		{name: "clean log kept", raw: good, want: []string{"one", "two"}, size: len(good)},
		{name: "torn header truncated", raw: append(good[:len(good):len(good)], 9, 0, 0), want: []string{"one", "two"}, size: len(good)},
		{name: "torn payload truncated", raw: good[:len(good)-1], want: []string{"one"}, size: 8 + len(frame("one"))},
		{name: "corrupt frame truncated", raw: append(good[:len(good)-1:len(good)-1], 'x'), want: []string{"one"}, size: 8 + len(frame("one"))},
		{name: "intact oversized frame refused", raw: oversized, refuse: true},
		{name: "torn oversized frame truncated", raw: oversized[:len(oversized)-4], want: []string{"one", "two"}, size: len(good)},
	} {
		fs := fault.NewSimFS(1, fault.Profile{})
		if tc.raw != nil {
			writeRaw(t, fs, tc.raw)
		}
		l, got, err := openCollect(fs)
		if tc.refuse {
			if err == nil {
				t.Errorf("%s: opened", tc.name)
				l.Close()
			} else if after, _ := fs.ReadFile(testPath); string(after) != string(tc.raw) {
				t.Errorf("%s: refused but modified the file", tc.name)
			}
			if fs.OpenHandles() != 0 {
				t.Errorf("%s: refusal leaked a handle", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || l.Size() != int64(tc.size) {
			t.Errorf("%s: replayed %v size %d, want %v size %d", tc.name, got, l.Size(), tc.want, tc.size)
		}
		// Whatever recovery did, the log must take appends at a clean boundary.
		if err := l.Append(frame("next")); err != nil {
			t.Errorf("%s: append after recovery: %v", tc.name, err)
		}
		l.Close()
		l, got, err = openCollect(fs)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(append(tc.want, "next")) {
			t.Errorf("%s: reopened to %v (err %v), want %v", tc.name, got, err, append(tc.want, "next"))
			continue
		}
		l.Close()
	}
}

// TestReplayStopAndError: ErrStop ends the log at the current frame (it is
// truncated, even when intact); any other replay error refuses the file.
func TestReplayStopAndError(t *testing.T) {
	raw := append(append(append(testMagic[:8:8], frame("keep")...), frame("stop")...), frame("after")...)
	fs := fault.NewSimFS(1, fault.Profile{})
	writeRaw(t, fs, raw)
	replay := func(verdict error) func([]byte) error {
		return func(p []byte) error {
			if string(p) == "stop" {
				return verdict
			}
			return nil
		}
	}
	if _, err := Open(fs, testPath, testMagic, testMax, replay(errors.New("bad record"))); err == nil {
		t.Fatal("a replay error did not refuse the file")
	}
	if after, _ := fs.ReadFile(testPath); len(after) != len(raw) {
		t.Fatal("a refused open modified the file")
	}
	l, err := Open(fs, testPath, testMagic, testMax, replay(ErrStop))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := int64(8 + len(frame("keep"))); l.Size() != want {
		t.Fatalf("size %d after ErrStop, want %d", l.Size(), want)
	}
	if after, _ := fs.ReadFile(testPath); int64(len(after)) != l.Size() {
		t.Fatalf("file is %d bytes after ErrStop, want %d", len(after), l.Size())
	}
}

// TestTailAdoptsForeignAppends: records another handle appended are replayed
// once and the append position moves past them; a torn foreign tail is left
// alone.
func TestTailAdoptsForeignAppends(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	a, _, err := openCollect(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, err := openCollect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(append(frame("from-b"), frame("torn")[:5]...)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	var got []string
	collect := func(p []byte) error { got = append(got, string(p)); return nil }
	if err := a.Tail(collect); err != nil {
		t.Fatal(err)
	}
	if err := a.Tail(collect); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[from-b]" || a.Size() != int64(8+len(frame("from-b"))) {
		t.Fatalf("tailed %v to size %d", got, a.Size())
	}
	if raw, _ := fs.ReadFile(testPath); int64(len(raw)) != a.Size()+5 {
		t.Fatal("Tail truncated another process's write in flight")
	}
}

// The scripted run both sweeps drive: open, three appends, sync, an append,
// an append+sync, a rewrite (compacting everything so far into one record),
// two appends, close. The model tracks what the file must hold.
type scriptState struct {
	records []string // every record whose append was started, in order
	acked   int      // records[:acked] were acknowledged (append returned nil)
	synced  int      // records[:synced] were covered by a successful fsync
}

// script runs the scripted sequence and returns what the file must hold.
// stopOnErr makes the first error end the run (the process is dead);
// otherwise every step runs regardless.
func script(t *testing.T, fs *fault.SimFS, stopOnErr bool) (st scriptState) {
	t.Helper()
	var l *Log
	var err error
	for try := 0; l == nil; try++ {
		if l, _, err = openCollect(fs); err != nil && (stopOnErr || try == 2) {
			return st
		}
	}
	defer l.Close()
	appendRec := func(rec string, sync bool) bool {
		st.records = append(st.records, rec)
		if sync {
			err = l.AppendSync(frame(rec))
		} else {
			err = l.Append(frame(rec))
		}
		if err != nil {
			if stopOnErr {
				return false
			}
			// Reported failed: it must be gone, not merely unacknowledged.
			st.records = st.records[:len(st.records)-1]
			return true
		}
		st.acked = len(st.records)
		if sync {
			st.synced = st.acked
		}
		return true
	}
	for i := 0; i < 3; i++ {
		if !appendRec(fmt.Sprintf("rec-%d", i), false) {
			return st
		}
	}
	if err := l.Sync(); err == nil {
		st.synced = st.acked
	} else if stopOnErr {
		return st
	}
	if !appendRec("rec-3", false) || !appendRec("rec-4-synced", true) {
		return st
	}
	if !stopOnErr {
		// The rewrite is about to replace the file; whatever an earlier error
		// left mid-file must be caught now. Every acknowledged record, and
		// nothing else, is readable — no garbage for appends to land behind.
		raw, _ := fs.ReadFile(testPath)
		var onDisk []string
		_, clean, _ := ScanFrames(raw[len(testMagic):], testMax, func(p []byte) error {
			onDisk = append(onDisk, string(p))
			return nil
		})
		if !clean || fmt.Sprint(onDisk) != fmt.Sprint(st.records) {
			t.Errorf("before the rewrite the file holds %v (clean=%v), want exactly the acknowledged %v", onDisk, clean, st.records)
		}
	}
	compacted := scriptState{records: []string{fmt.Sprintf("compact-%d", st.acked)}, acked: 1, synced: 1}
	before := fs.OpenHandles()
	err = l.Rewrite(func(w io.Writer) error {
		_, err := w.Write(frame(compacted.records[0]))
		return err
	})
	switch {
	case err == nil:
		st = compacted
	case stopOnErr:
		// Died before the rename (the rewrite's last mutating op): all of the
		// old contents, none of the new.
		return st
	default:
		// A rewrite that reports failure left the log as it was, with no tmp
		// file and no extra handle.
		for _, name := range fs.Files() {
			if strings.HasSuffix(name, ".tmp") {
				t.Errorf("failed rewrite stranded %s", name)
			}
		}
		if got := fs.OpenHandles(); got != before {
			t.Errorf("failed rewrite leaked handles: %d, want %d", got, before)
		}
	}
	if appendRec("rec-5", false) {
		appendRec("rec-6", false)
	}
	return st
}

// countOps runs the script once with no faults and returns how many mutating
// filesystem operations it performs — the sweep range.
func countOps(t *testing.T) int {
	fs := fault.NewSimFS(1, fault.Profile{})
	n := 0
	fs.FailWith(func(op, name string) error { n++; return nil })
	script(t, fs, true)
	if n < 12 {
		t.Fatalf("script performed only %d mutating ops", n)
	}
	return n
}

// checkRecovered asserts the recovery invariant: the recovered records are a
// prefix of those appended and a superset of those synced. Around a rewrite
// st is wholly the old contents or wholly the new, so this is also the
// all-or-nothing check.
func checkRecovered(t *testing.T, what string, got []string, st scriptState) {
	t.Helper()
	if !isPrefix(got, st.records) || len(got) < st.synced {
		t.Errorf("%s: recovered %v; want a prefix of %v covering the first %d", what, got, st.records, st.synced)
	}
}

// afterRecovery proves a recovered log is fully usable: append, rewrite,
// reopen — and that nothing is left behind (tmp files, handles).
func afterRecovery(t *testing.T, what string, fs *fault.SimFS, l *Log, got []string) {
	t.Helper()
	if err := l.AppendSync(frame("post")); err != nil {
		t.Errorf("%s: append after recovery: %v", what, err)
	}
	want := append(got[:len(got):len(got)], "post")
	if err := l.Rewrite(func(w io.Writer) error {
		for _, rec := range want {
			if _, err := w.Write(frame(rec)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Errorf("%s: rewrite after recovery: %v", what, err)
	}
	l.Close()
	l, again, err := openCollect(fs)
	if err != nil || fmt.Sprint(again) != fmt.Sprint(want) {
		t.Errorf("%s: reopened to %v (err %v), want %v", what, again, err, want)
		return
	}
	l.Close()
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("%s: stranded %s", what, name)
		}
	}
	if n := fs.OpenHandles(); n != 0 {
		t.Errorf("%s: %d handles left open", what, n)
	}
}

// TestCrashAtEveryOp kills the process at every mutating filesystem op of the
// scripted run in turn (from that op on nothing reaches the disk), restarts
// with a seeded torn tail, and checks the recovery invariant.
func TestCrashAtEveryOp(t *testing.T) {
	ops := countOps(t)
	for at := 0; at < ops; at++ {
		for seed := int64(1); seed <= 4; seed++ {
			what := fmt.Sprintf("crash at op %d seed %d", at, seed)
			fs := fault.NewSimFS(seed, fault.Profile{})
			n := 0
			fs.FailWith(func(op, name string) error {
				n++
				if n > at {
					return fault.ErrCrashed
				}
				return nil
			})
			st := script(t, fs, true)
			fs.FailWith(nil)
			fs.Crash()
			fs.Restart()
			l, got, err := openCollect(fs)
			if err != nil {
				t.Errorf("%s: reopen: %v", what, err)
				continue
			}
			checkRecovered(t, what, got, st)
			afterRecovery(t, what, fs, l, got)
		}
	}
}

// TestFailAtEveryOp injects one I/O error at every mutating filesystem op of
// the scripted run in turn and lets the run continue. An error return must
// leave no bytes a later successful append lands behind: reopened cleanly,
// the log holds exactly the acknowledged records; after a crash on top, a
// prefix of them covering the synced ones.
func TestFailAtEveryOp(t *testing.T) {
	ops := countOps(t)
	for at := 0; at < ops; at++ {
		what := fmt.Sprintf("error at op %d", at)
		fs := fault.NewSimFS(1, fault.Profile{})
		n := 0
		fs.FailWith(func(op, name string) error {
			n++
			if n != at+1 {
				return nil
			}
			if op == "write" {
				return fault.ErrTorn // half the buffer lands: the rollback has work to do
			}
			return fault.ErrInjected
		})
		st := script(t, fs, false)
		fs.FailWith(nil)
		if n := fs.OpenHandles(); n != 0 {
			t.Errorf("%s: %d handles left open after close", what, n)
		}
		l, got, err := openCollect(fs)
		if err != nil {
			t.Errorf("%s: reopen: %v", what, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(st.records) {
			t.Errorf("%s: reopened to %v, want exactly the acknowledged %v", what, got, st.records)
		}
		l.Close()
		fs.Crash()
		fs.Restart()
		l, got, err = openCollect(fs)
		if err != nil {
			t.Errorf("%s: reopen after crash: %v", what, err)
			continue
		}
		checkRecovered(t, what+" then crash", got, st)
		afterRecovery(t, what+" then crash", fs, l, got)
	}
}

// TestPoisonedAfterFailedRollback: when the rollback of a failed append
// itself fails, the tail is unknown and the log refuses all further appends
// and rewrites.
func TestPoisonedAfterFailedRollback(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	l, _, err := openCollect(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.FailWith(func(op, name string) error {
		if op == "write" || op == "truncate" {
			return fault.ErrInjected
		}
		return nil
	})
	if err := l.Append(frame("lost")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append: %v", err)
	}
	fs.FailWith(nil)
	if err := l.Append(frame("after")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on a poisoned log: %v", err)
	}
	if err := l.Rewrite(func(io.Writer) error { return nil }); err == nil {
		t.Fatal("rewrite on a poisoned log succeeded")
	}
}

// TestSizeIsGoodBoundaryWhenRollbackFails: Size is what an owner records as
// covered (the store's commit record), so a Rollback whose truncate fails
// must still report the mark — the discarded records are in the file, not in
// the log.
func TestSizeIsGoodBoundaryWhenRollbackFails(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	l, _, err := openCollect(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(frame("kept")); err != nil {
		t.Fatal(err)
	}
	mark := l.Size()
	if err := l.Append(frame("undone")); err != nil {
		t.Fatal(err)
	}
	fs.FailWith(func(op, name string) error {
		if op == "truncate" {
			return fault.ErrInjected
		}
		return nil
	})
	l.Rollback(mark)
	fs.FailWith(nil)
	if l.Size() != mark {
		t.Fatalf("size %d after a failed rollback, want the mark %d", l.Size(), mark)
	}
	if err := l.Append(frame("after")); err == nil {
		t.Fatal("append on a poisoned log succeeded")
	}
}
