package fault

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestOSPassthrough exercises the production FS against a real tempdir: the
// interface must behave exactly like package os for the operations the
// durable components use.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fs := Or(nil)
	if fs != OS {
		t.Fatalf("Or(nil) = %v, want OS", fs)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a", "b", "f")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("ReadAt = %q", buf)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "he" {
		t.Fatalf("after truncate: %q", b)
	}
	if err := fs.WriteFile(path+".2", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(path+".2", path+".3"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(path + ".3"); err != nil {
		t.Fatal(err)
	}
}

// TestSimFSPageCache checks the heart of the model: writes are visible to
// reads immediately but volatile; Sync makes them durable; a crash + restart
// reverts each file to its durable prefix plus at most a seeded suffix of
// the unsynced tail.
func TestSimFSPageCache(t *testing.T) {
	fs := NewSimFS(1, Profile{})
	f, err := fs.OpenFile("w", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	// Reads see everything written, synced or not.
	b, err := fs.ReadFile("w")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "durable-volatile" {
		t.Fatalf("read = %q", b)
	}
	d, ok := fs.DurableBytes("w")
	if !ok || string(d) != "durable" {
		t.Fatalf("durable = %q, %v", d, ok)
	}

	fs.Crash()
	if _, err := fs.ReadFile("w"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	fs.Restart()
	b, err = fs.ReadFile("w")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "durable") || len(b) > len("durable-volatile") {
		t.Fatalf("after restart: %q — must be durable content + prefix of the torn tail", b)
	}
	if !strings.HasPrefix("durable-volatile", string(b)) {
		t.Fatalf("after restart: %q is not a prefix of the written content", b)
	}
	// The old handle died with the process.
	if _, err := f.Write([]byte("z")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("stale handle write: %v", err)
	}
}

// TestSimFSCrashSchedule checks that CrashEvery fires, operations fail with
// ErrCrashed once dead, and Restart revives the FS with a new crash point.
func TestSimFSCrashSchedule(t *testing.T) {
	fs := NewSimFS(7, Profile{CrashEvery: 10})
	ops, crashSeen := 0, 0
	for i := 0; i < 500; i++ {
		err := fs.WriteFile("f", []byte("x"), 0o644)
		ops++
		if errors.Is(err, ErrCrashed) {
			if !fs.Crashed() {
				t.Fatal("ErrCrashed but Crashed() false")
			}
			crashSeen++
			fs.Restart()
		}
	}
	if crashSeen == 0 {
		t.Fatalf("no crash point fired in %d ops with CrashEvery=10", ops)
	}
	if got := fs.Crashes(); got != crashSeen {
		t.Fatalf("Crashes() = %d, observed %d", got, crashSeen)
	}
}

// TestSimFSDeterminism: two instances with the same seed and profile must
// produce an identical fault trace — the property seed replay rests on.
func TestSimFSDeterminism(t *testing.T) {
	trace := func(seed int64) string {
		fs := NewSimFS(seed, Profile{TornWrite: 0.2, ENOSPC: 0.1, SyncFail: 0.2, CrashEvery: 40})
		var sb strings.Builder
		f, _ := fs.OpenFile("t", os.O_CREATE|os.O_RDWR, 0o644)
		for i := 0; i < 300; i++ {
			if fs.Crashed() {
				fs.Restart()
				var err error
				f, err = fs.OpenFile("t", os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
				if errors.Is(err, ErrCrashed) {
					sb.WriteString("C") // crashed again mid-recovery
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				b, _ := fs.ReadFile("t")
				sb.WriteString("R")
				sb.WriteByte(byte('0' + len(b)%10))
				continue
			}
			_, werr := f.Write([]byte("abcdef"))
			serr := f.Sync()
			switch {
			case errors.Is(werr, ErrCrashed) || errors.Is(serr, ErrCrashed):
				sb.WriteString("C")
			case werr != nil || serr != nil:
				sb.WriteString("F")
			default:
				sb.WriteString(".")
			}
		}
		return sb.String()
	}
	a, b, c := trace(42), trace(42), trace(43)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
	if !strings.ContainsAny(a, "FC") {
		t.Fatalf("trace with aggressive profile shows no faults: %s", a)
	}
}

// TestSimFSTornWrite checks a torn write persists exactly the reported
// prefix.
func TestSimFSTornWrite(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		fs := NewSimFS(seed, Profile{TornWrite: 1})
		f, err := fs.OpenFile("t", os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Write([]byte("0123456789"))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("seed %d: want injected error, got %v", seed, err)
		}
		if n < 0 || n > 10 {
			t.Fatalf("seed %d: torn write n=%d", seed, n)
		}
		b, _ := fs.ReadFile("t")
		if string(b) != "0123456789"[:n] {
			t.Fatalf("seed %d: file %q after torn write of %d", seed, b, n)
		}
	}
}

// TestSimFSSyncFailPartial: a failed fsync may still have made a prefix of
// the unsynced tail durable, never more than was written.
func TestSimFSSyncFailPartial(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		fs := NewSimFS(seed, Profile{SyncFail: 1})
		f, _ := fs.OpenFile("s", os.O_CREATE|os.O_RDWR, 0o644)
		f.Write([]byte("0123456789"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("seed %d: want injected sync failure, got %v", seed, err)
		}
		d, _ := fs.DurableBytes("s")
		if !strings.HasPrefix("0123456789", string(d)) {
			t.Fatalf("seed %d: durable %q is not a written prefix", seed, d)
		}
	}
}

// TestSimFSDropSync: the lying fsync reports success with nothing durable —
// the canonical deliberately-injected durability bug.
func TestSimFSDropSync(t *testing.T) {
	fs := NewSimFS(1, Profile{DropSync: DropSyncFor("COMMITS.log")})
	f, _ := fs.OpenFile("store/COMMITS.log", os.O_CREATE|os.O_RDWR, 0o644)
	f.Write([]byte("record"))
	if err := f.Sync(); err != nil {
		t.Fatalf("lying fsync must report success, got %v", err)
	}
	if d, _ := fs.DurableBytes("store/COMMITS.log"); len(d) != 0 {
		t.Fatalf("DropSync file became durable: %q", d)
	}
	g, _ := fs.OpenFile("store/shard-000", os.O_CREATE|os.O_RDWR, 0o644)
	g.Write([]byte("data"))
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.DurableBytes("store/shard-000"); string(d) != "data" {
		t.Fatalf("non-matching file not durable: %q", d)
	}
}

// TestSimFSTruncateAndAppend covers the commit-journal recovery pattern:
// open O_APPEND, truncate to a committed size, keep appending.
func TestSimFSTruncateAndAppend(t *testing.T) {
	fs := NewSimFS(3, Profile{})
	f, _ := fs.OpenFile("j", os.O_CREATE|os.O_RDWR, 0o644)
	f.Write([]byte("aaaabbbbcccc"))
	f.Sync()
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.DurableBytes("j"); string(d) != "aaaabbbb" {
		t.Fatalf("durable after truncate: %q", d)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("dddd"))
	b, _ := fs.ReadFile("j")
	if string(b) != "aaaabbbbdddd" {
		t.Fatalf("after truncate+append: %q", b)
	}
}

// TestSimFSHandleAndTempAudit: OpenHandles and Files power the leak
// regression tests; make sure they count correctly.
func TestSimFSHandleAndTempAudit(t *testing.T) {
	fs := NewSimFS(1, Profile{})
	if n := fs.OpenHandles(); n != 0 {
		t.Fatalf("fresh FS has %d handles", n)
	}
	f, _ := fs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	g, _ := fs.OpenFile("b.tmp", os.O_CREATE|os.O_RDWR, 0o644)
	if n := fs.OpenHandles(); n != 2 {
		t.Fatalf("open handles = %d, want 2", n)
	}
	f.Close()
	g.Close()
	if n := fs.OpenHandles(); n != 0 {
		t.Fatalf("handles after close = %d", n)
	}
	if err := fs.Rename("b.tmp", "b"); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(fs.Files(), ",")
	if got != "a,b" {
		t.Fatalf("Files() = %q", got)
	}
}

// TestNetworkDeterminismAndReset drives a real TCP pair through the fault
// dialer and checks (a) budgets kill connections with byte-level truncation,
// (b) the same seed yields the same reset schedule.
func TestNetworkDeterminismAndReset(t *testing.T) {
	run := func(seed int64) (resets int, trace string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go io.Copy(io.Discard, c)
			}
		}()
		nw := NewNetwork(seed, NetProfile{ResetProb: 0.7, MinBudget: 64, MaxBudget: 256})
		var sb strings.Builder
		buf := make([]byte, 100)
		for i := 0; i < 20; i++ {
			c, err := nw.Dial(ln.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ok := 0
			for j := 0; j < 10; j++ {
				if _, err := c.Write(buf); err != nil {
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("unexpected write error: %v", err)
					}
					break
				}
				ok++
			}
			sb.WriteByte(byte('0' + ok))
			c.Close()
		}
		return nw.Resets(), sb.String()
	}
	r1, t1 := run(11)
	r2, t2 := run(11)
	if t1 != t2 || r1 != r2 {
		t.Fatalf("same seed diverged: %q/%d vs %q/%d", t1, r1, t2, r2)
	}
	if r1 == 0 {
		t.Fatal("no resets with ResetProb=0.7")
	}
	if !strings.Contains(t1, "A"[:0]+"0") && !strings.ContainsAny(t1, "0123456") {
		t.Fatalf("no truncated connection observed: %q", t1)
	}
}

// TestNetworkPartition: a partition fails writes on the cut direction only,
// and healing restores traffic on fresh connections.
func TestNetworkPartition(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	nw := NewNetwork(1, NetProfile{})
	nw.Partition(true, false) // cut sensor->coordinator only

	c, err := nw.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write through up-partition: %v", err)
	}

	nw.Partition(false, false) // heal
	c2, err := nw.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write([]byte("x")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	c2.Close()
}

// TestFailWithErrTorn: a hook returning ErrTorn for a write lands the first
// half of the buffer and fails the write.
func TestFailWithErrTorn(t *testing.T) {
	fs := NewSimFS(1, Profile{})
	f, err := fs.OpenFile("f", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fs.FailWith(func(op, name string) error {
		if op == "write" {
			return ErrTorn
		}
		return nil
	})
	if n, err := f.Write([]byte("12345678")); n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: n=%d err=%v, want 4 and an injected error", n, err)
	}
	if got, _ := fs.ReadFile("f"); string(got) != "1234" {
		t.Fatalf("file holds %q after a torn write, want %q", got, "1234")
	}
}
