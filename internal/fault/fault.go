// Package fault is the deterministic fault-injection substrate underneath
// the repo's crash and partition testing. It has two halves:
//
//   - FS, a small VFS interface covering every file operation the durable
//     components (eventstore shards and commit journal, fleet spool and
//     watermark journal, ingest checkpoints) perform. Production code uses
//     the passthrough OS implementation — *os.File satisfies File directly,
//     so the only cost is an interface call in front of each syscall. Tests
//     substitute SimFS, an in-memory filesystem that models the page cache
//     (written bytes are volatile until Sync) and injects seeded faults:
//     torn writes, short writes, ENOSPC, failed fsyncs with partial
//     durability, and hard crash points at any operation step.
//
//   - Dialer/Conn/Listener wrappers that inject seeded connection faults —
//     resets, byte-level truncation, delivery delay, and asymmetric
//     partitions — between the fleet shipper and listener.
//
// Everything is seeded: the same seed yields the same fault schedule, which
// is what lets internal/simtest replay a failing run with -fault.seed=N.
// FoundationDB-style simulation testing is the model: instead of a handful
// of hand-picked crash tests, a seeded search over crash points and network
// faults, with the standing invariants (no acked batch lost, no event
// applied twice) asserted after every recovery.
package fault

import (
	"io"
	"os"
)

// File is the subset of *os.File the durable components use. *os.File
// satisfies it with no wrapper.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
}

// FS is the filesystem surface the durable components are written against.
// The OS implementation passes every call straight through to package os.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir returns the names (not paths) of the files in dir, sorted.
	// A missing directory is not an error: it reads as empty, matching how
	// the self-describing stores (timeline segments, checkpoints) treat a
	// first open. Subdirectories are not listed.
	ReadDir(dir string) ([]string, error)
}

// OS is the passthrough filesystem: production code's default.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // typed-nil-in-interface if returned directly
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil // os.ReadDir already sorts by name
}

// WriteFileAtomic replaces path with data via a fully fsynced temp file and a
// rename — the one routine for whole-file atomic replacement (timeline
// segments and checkpoints, ingest checkpoints, the registry's automaton
// cache), so a file under its final name is complete by construction. The
// fsync before the rename is load-bearing: without it a crash shortly after
// the rename can leave an empty or torn file under the final name. On any
// failure the handle is closed and tmp removed; a crash between write and
// rename leaves tmp behind for the owner's recovery (or its next write, which
// truncates it) to clear.
func WriteFileAtomic(fs FS, tmp, path string, data []byte) error {
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		f.Close()
		fs.Remove(tmp) // best effort
		return err
	}
	if _, err := f.Write(data); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return nil
}

// Or returns fs, or OS when fs is nil — the "zero Config means production"
// helper every threaded component uses.
func Or(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}
