package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every SimFS operation once a crash point has
// fired: the simulated process is dead, and stays dead until Restart.
var ErrCrashed = errors.New("fault: simulated crash")

// ErrInjected is the base of every injected I/O error; errors.Is(err,
// ErrInjected) distinguishes scheduled faults from real bugs in a test.
var ErrInjected = errors.New("fault: injected error")

// ErrTorn is ErrInjected with a side effect: returned from a FailWith hook
// for a "write" op, it makes that Write a torn one — the first half of the
// buffer lands, then the write fails with this error. It is how a test tears
// one exact write instead of fishing with Profile.TornWrite.
var ErrTorn = fmt.Errorf("torn write: %w", ErrInjected)

// Profile tunes a SimFS's fault schedule. The zero Profile injects nothing:
// SimFS is then just a deterministic in-memory filesystem with an explicit
// page-cache model (writes are volatile until Sync; Crash discards them).
type Profile struct {
	// TornWrite is the probability that a Write persists only a prefix of
	// its buffer and fails — the classic torn append.
	TornWrite float64
	// ENOSPC is the probability that a Write fails having written nothing.
	ENOSPC float64
	// SyncFail is the probability that a Sync fails; a seeded fraction of
	// the unsynced bytes becomes durable anyway (a partial fsync — the
	// drive flushed some pages before erroring).
	SyncFail float64
	// CrashEvery, when > 0, schedules hard crash points: roughly every
	// CrashEvery filesystem operations (uniform in [1, 2*CrashEvery]), the
	// FS transitions to the crashed state and every subsequent operation
	// returns ErrCrashed until Restart.
	CrashEvery int
	// DropSync, when set, names files whose Sync LIES: it returns success
	// without making anything durable. This is the deliberate-bug injector
	// — run a simulation with DropSync matching COMMITS.log and the seeds
	// that crash after an ack must catch the lost durability.
	DropSync func(name string) bool
}

// SimFS is a deterministic in-memory filesystem with seeded fault
// injection. Every file carries two states: data (what reads observe — the
// page cache) and durable (what survives a crash — the platter). Write
// extends data; Sync promotes data to durable; Crash/Restart reverts each
// file to its durable content plus a seeded prefix of the unsynced tail
// (the torn page writes a real power loss leaves behind).
//
// Rename is modeled as atomic and immediately journaled (the content's
// durability still follows the source file), matching the guarantees the
// repo's compact-and-rename paths rely on.
type SimFS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	prof    Profile
	files   map[string]*simFile
	dirs    map[string]bool
	handles map[*simHandle]bool
	step    uint64
	crashAt uint64 // next scheduled crash step; 0 = none
	crashed bool
	crashes int
	faults  int
	// failHook, when armed via FailWith, deterministically fails matching
	// operations — the error-path regression tests use it to hit one exact
	// failure branch instead of fishing with probabilities.
	failHook func(op, name string) error
}

type simFile struct {
	data    []byte
	durable []byte
	synced  bool // durable is current (len alone can't tell: truncation)
}

// NewSimFS creates a simulated filesystem with the given seed and profile.
func NewSimFS(seed int64, prof Profile) *SimFS {
	fs := &SimFS{
		rng:     rand.New(rand.NewSource(seed)),
		prof:    prof,
		files:   map[string]*simFile{},
		dirs:    map[string]bool{},
		handles: map[*simHandle]bool{},
	}
	fs.scheduleCrashLocked()
	return fs
}

func (fs *SimFS) scheduleCrashLocked() {
	if fs.prof.CrashEvery > 0 {
		fs.crashAt = fs.step + 1 + uint64(fs.rng.Intn(2*fs.prof.CrashEvery))
	} else {
		fs.crashAt = 0
	}
}

// op advances the operation clock and reports whether the process is (now)
// crashed. Callers hold fs.mu.
func (fs *SimFS) op() bool {
	if fs.crashed {
		return true
	}
	fs.step++
	if fs.crashAt != 0 && fs.step >= fs.crashAt {
		fs.crashed = true
		fs.crashes++
	}
	return fs.crashed
}

// Crashed reports whether a crash point has fired. The driver polls this to
// know the simulated process is dead and needs a Restart.
func (fs *SimFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Crash forces the crashed state, as if a crash point fired now.
func (fs *SimFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.crashed {
		fs.crashed = true
		fs.crashes++
	}
}

// Crashes returns how many crash points have fired so far.
func (fs *SimFS) Crashes() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashes
}

// Faults returns how many I/O faults (torn writes, ENOSPC, failed syncs)
// have been injected so far.
func (fs *SimFS) Faults() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.faults
}

// FailWith arms (or with nil, disarms) a deterministic fault hook. Before
// the profile's random faults, every mutating operation consults
// hook(op, name) — op is one of "open", "write", "writefile", "sync",
// "truncate", "rename", "remove" — and fails with the returned error when
// non-nil (ErrTorn on a "write" tears it instead of suppressing it). The hook runs with the filesystem lock held: it must not call
// back into the SimFS.
func (fs *SimFS) FailWith(hook func(op, name string) error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failHook = hook
}

// failLocked consults the armed hook. Callers hold fs.mu.
func (fs *SimFS) failLocked(op, name string) error {
	if fs.failHook == nil {
		return nil
	}
	if err := fs.failHook(op, name); err != nil {
		fs.faults++
		return err
	}
	return nil
}

// OpenHandles returns how many opened files have not been closed — the
// leaked-descriptor audit used by the error-path regression tests.
func (fs *SimFS) OpenHandles() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.handles)
}

// Restart recovers from a crash: every open handle is invalidated, every
// file reverts to its durable content plus a seeded prefix of its unsynced
// tail (torn pages), and the next crash point is scheduled. It is also
// valid on a non-crashed FS (a clean process restart: the page cache
// survives, so nothing reverts, but handles still die with the process).
func (fs *SimFS) Restart() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for h := range fs.handles {
		h.closed = true
		delete(fs.handles, h)
	}
	if fs.crashed {
		for _, f := range fs.files {
			if f.synced {
				continue
			}
			next := append([]byte(nil), f.durable...)
			if tail := len(f.data) - len(f.durable); tail > 0 {
				keep := fs.rng.Intn(tail + 1)
				next = append(next, f.data[len(f.durable):len(f.durable)+keep]...)
			}
			f.data = next
			f.synced = len(f.data) == len(f.durable)
		}
		fs.crashed = false
	}
	fs.scheduleCrashLocked()
}

// Files returns the names of existing files, sorted (tests audit for
// undeleted temp files with it).
func (fs *SimFS) Files() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func injected(kind, name string) error {
	return fmt.Errorf("fault: injected %s on %s: %w", kind, name, ErrInjected)
}

func (fs *SimFS) MkdirAll(path string, perm os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return ErrCrashed
	}
	fs.dirs[filepath.Clean(path)] = true
	return nil
}

func (fs *SimFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return nil, ErrCrashed
	}
	name = filepath.Clean(name)
	if err := fs.failLocked("open", name); err != nil {
		return nil, err
	}
	f, ok := fs.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		f = &simFile{synced: true}
		fs.files[name] = f
	} else if flag&os.O_TRUNC != 0 {
		f.data = nil
		f.durable = nil
		f.synced = false
	}
	h := &simHandle{fs: fs, name: name, f: f}
	if flag&os.O_APPEND != 0 {
		h.off = int64(len(f.data))
	}
	fs.handles[h] = true
	return h, nil
}

func (fs *SimFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return nil, ErrCrashed
	}
	f, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (fs *SimFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return ErrCrashed
	}
	name = filepath.Clean(name)
	if err := fs.failLocked("writefile", name); err != nil {
		return err
	}
	if p := fs.prof.ENOSPC; p > 0 && fs.rng.Float64() < p {
		fs.faults++
		return injected("ENOSPC", name)
	}
	f := &simFile{data: append([]byte(nil), data...)}
	if p := fs.prof.TornWrite; p > 0 && fs.rng.Float64() < p {
		fs.faults++
		f.data = f.data[:fs.rng.Intn(len(f.data)+1)]
		fs.files[name] = f
		return injected("torn write", name)
	}
	fs.files[name] = f
	return nil
}

func (fs *SimFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return ErrCrashed
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if err := fs.failLocked("rename", oldpath); err != nil {
		return err
	}
	f, ok := fs.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(fs.files, oldpath)
	fs.files[newpath] = f
	return nil
}

func (fs *SimFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return ErrCrashed
	}
	name = filepath.Clean(name)
	if err := fs.failLocked("remove", name); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

// ReadDir lists the names of files directly inside dir, sorted. Like the OS
// implementation, a missing directory reads as empty.
func (fs *SimFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.op() {
		return nil, ErrCrashed
	}
	dir = filepath.Clean(dir)
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Quiescent reports whether every file's page cache matches its durable
// content — a crash right now would lose nothing. The simulation driver
// uses it as the safe-kill predicate for processes whose contract only
// covers clean-at-rest state (the sensor's spool + checkpoint).
func (fs *SimFS) Quiescent() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		if len(f.data) != len(f.durable) {
			return false
		}
		for i := range f.data {
			if f.data[i] != f.durable[i] {
				return false
			}
		}
	}
	return true
}

// DurableBytes returns the crash-surviving content of a file — what a
// Restart after a crash right now would recover at most (a torn suffix of
// the unsynced tail may survive too). Tests assert durability claims with
// it.
func (fs *SimFS) DurableBytes(name string) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[filepath.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.durable...), true
}

// simHandle is one open file descriptor.
type simHandle struct {
	fs     *SimFS
	name   string
	f      *simFile
	off    int64
	closed bool
}

func (h *simHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.op() {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	n := len(p)
	var err error
	if err = h.fs.failLocked("write", h.name); err != nil {
		if !errors.Is(err, ErrTorn) {
			return 0, err
		}
		n /= 2
	} else if pr := h.fs.prof.ENOSPC; pr > 0 && h.fs.rng.Float64() < pr {
		h.fs.faults++
		return 0, injected("ENOSPC", h.name)
	} else if pr := h.fs.prof.TornWrite; pr > 0 && h.fs.rng.Float64() < pr {
		h.fs.faults++
		n = h.fs.rng.Intn(len(p) + 1)
		err = injected("torn write", h.name)
	}
	end := h.off + int64(n)
	if grow := end - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[h.off:end], p[:n])
	h.off = end
	if n > 0 {
		h.f.synced = false
	}
	return n, err
}

func (h *simHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.op() {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *simHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.op() {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.f.data)) + offset
	default:
		return 0, fmt.Errorf("fault: bad whence %d", whence)
	}
	if h.off < 0 {
		return 0, fmt.Errorf("fault: negative seek offset")
	}
	return h.off, nil
}

func (h *simHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.op() {
		return ErrCrashed
	}
	if h.closed {
		return os.ErrClosed
	}
	if size < 0 {
		return fmt.Errorf("fault: bad truncate size %d", size)
	}
	if err := h.fs.failLocked("truncate", h.name); err != nil {
		return err
	}
	if size >= int64(len(h.f.data)) {
		h.f.data = append(h.f.data, make([]byte, size-int64(len(h.f.data)))...)
		h.f.synced = size == int64(len(h.f.durable))
		return nil
	}
	h.f.data = h.f.data[:size]
	if int64(len(h.f.durable)) > size {
		h.f.durable = h.f.durable[:size]
	}
	h.f.synced = len(h.f.data) == len(h.f.durable)
	return nil
}

func (h *simHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.op() {
		return ErrCrashed
	}
	if h.closed {
		return os.ErrClosed
	}
	if err := h.fs.failLocked("sync", h.name); err != nil {
		return err
	}
	if ds := h.fs.prof.DropSync; ds != nil && ds(h.name) {
		return nil // the lying fsync: success reported, nothing durable
	}
	if pr := h.fs.prof.SyncFail; pr > 0 && h.fs.rng.Float64() < pr {
		h.fs.faults++
		// Partial fsync: some pages reached the platter before the error.
		if tail := len(h.f.data) - len(h.f.durable); tail > 0 {
			keep := h.fs.rng.Intn(tail + 1)
			h.f.durable = append(h.f.durable, h.f.data[len(h.f.durable):len(h.f.durable)+keep]...)
		}
		return injected("fsync failure", h.name)
	}
	h.f.durable = append(h.f.durable[:0], h.f.data...)
	h.f.synced = true
	return nil
}

func (h *simHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	delete(h.fs.handles, h)
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}

// DropSyncFor builds a Profile.DropSync matcher on a path suffix —
// DropSyncFor("COMMITS.log") is the canonical deliberately-injected
// durability bug.
func DropSyncFor(suffix string) func(string) bool {
	return func(name string) bool { return strings.HasSuffix(name, suffix) }
}
