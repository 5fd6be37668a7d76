// Package wal is the repo's one durable-log substrate: the record framing
// every on-disk log and wire stream shares, the field codec (Cursor and the
// Append helpers in codec.go) for the payloads inside those frames, and Log,
// the append-only framed file behind the event shards, the commit journal,
// the amendment log, the fleet spool and watermark journal, and the
// registry's digest log and ruleset journal.
//
// A log file is an 8-byte magic followed by AppendFrame records. What
// recovery keeps, truncates and refuses is decided here and nowhere else:
//
//   - an empty file or a strict prefix of the magic is a creation torn by a
//     crash: nothing else can have been written, so it is reinitialized;
//   - any other file that does not start with the magic is refused;
//   - intact frames replay, in order, through the owner's callback;
//   - the first short or corrupt frame is a torn append: the file is
//     truncated there — a crash costs at most the torn tail, never the log;
//   - an intact frame beyond the record cap is real data some writer was
//     allowed to produce, not a tear: it is refused, loudly, rather than
//     truncated along with everything behind it.
//
// Writers get the mirror-image guarantee from Append: a failed write is
// rolled back to the last good boundary before the error returns, so a later
// successful append can never land behind garbage (recovery would stop at
// the garbage and drop every acknowledged record after it). When even the
// rollback fails the log is poisoned and refuses all further appends.
//
// A Log has no lock of its own: each owner already serializes its appends
// under the lock that guards the state the records describe. The one overlap
// allowed is Sync alongside Append or Rollback (the store fsyncs shards while
// appends stream on); nothing may overlap Rewrite.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/fault"
)

// ErrStop is what a replay callback returns to end the log at the current
// frame: the frame and everything after it are treated as a torn tail and
// truncated. Owners use it for rules the framing cannot see — a payload that
// does not parse, a generation that does not increase, a shard frame beyond
// the last commit record. Any other replay error refuses the file.
var ErrStop = errors.New("wal: replay ended the log")

// Log is one open framed log file positioned for appends.
type Log struct {
	fs    fault.FS
	f     fault.File
	path  string
	magic [8]byte
	max   int
	size  int64
	bad   error // set when a failed append could not be rolled back
}

// Open opens (creating if needed) the log at path and recovers it: every
// intact record of at most maxRecord bytes is passed to replay in order, and
// the handle is left positioned after the last one kept. See the package
// comment for what is reinitialized, truncated and refused.
func Open(fs fault.FS, path string, magic [8]byte, maxRecord int, replay func(payload []byte) error) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, f: f, path: path, magic: magic, max: maxRecord}
	if err := l.recover(replay); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) recover(replay func(payload []byte) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	size := int64(len(l.magic))
	switch {
	case len(raw) < len(l.magic) && bytes.Equal(raw, l.magic[:len(raw)]):
		// Refusing to open here would wedge every restart until someone
		// cleaned up by hand, over a file that cannot hold a record.
		if _, err := l.f.Write(l.magic[:]); err != nil {
			return err
		}
		if err := l.f.Truncate(size); err != nil {
			return err
		}
	case len(raw) < len(l.magic) || !bytes.Equal(raw[:len(l.magic)], l.magic[:]):
		return fmt.Errorf("wal: %s does not start with the %q magic", l.path, l.magic[:])
	default:
		good, _, err := ScanFrames(raw[size:], l.max, replay)
		stopped := errors.Is(err, ErrStop)
		if err != nil && !stopped {
			return fmt.Errorf("wal: %s: %w", l.path, err)
		}
		size += int64(good)
		if size < int64(len(raw)) {
			if !stopped && intactFrame(raw[size:]) {
				return fmt.Errorf("wal: %s: intact frame beyond the %d-byte record cap at offset %d; refusing to truncate it",
					l.path, l.max, size)
			}
			if err := l.f.Truncate(size); err != nil {
				return err
			}
		}
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	return nil
}

// Size returns the log's good length in bytes: the magic plus every record
// appended or recovered and not rolled back. It is the mark Rollback takes.
func (l *Log) Size() int64 { return l.size }

// Append writes caller-framed records (one or more AppendFrame results) at
// the end of the log. On a failed or short write the log is rolled back to
// its previous size before the error returns. Durability arrives at the next
// Sync.
func (l *Log) Append(frames []byte) error {
	if l.bad != nil {
		return l.bad
	}
	if _, err := l.f.Write(frames); err != nil {
		l.Rollback(l.size)
		return err
	}
	l.size += int64(len(frames))
	return nil
}

// AppendSync is Append then Sync as one unit, for records whose return is a
// durability promise. A failed fsync may have left the record partly on
// disk, so it is rolled back too: the next record must not be written
// beyond a potential tear, and the owner's state must not run ahead of a
// record it was told failed.
func (l *Log) AppendSync(frames []byte) error {
	mark := l.size
	if err := l.Append(frames); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.Rollback(mark)
		return err
	}
	return nil
}

// Rollback discards everything after mark, a Size taken earlier — how an
// owner undoes appends that succeeded here when a sibling log's failed (the
// store's all-or-nothing multi-shard batch). If the truncate or the seek
// fails the tail is unknown and the log is poisoned. Size is mark either way:
// it is the last good boundary, not the file's length, so an owner that
// records it (the store's commit record) never covers a discarded append and
// the next Open truncates whatever the failed truncate left behind.
func (l *Log) Rollback(mark int64) {
	if mark < int64(len(l.magic)) || mark > l.size {
		panic(fmt.Sprintf("wal: rollback of %s to %d", l.path, mark))
	}
	l.size = mark
	if l.bad != nil {
		return
	}
	if err := l.f.Truncate(mark); err != nil {
		l.bad = fmt.Errorf("wal: %s poisoned: truncating a failed append: %w", l.path, err)
		return
	}
	if _, err := l.f.Seek(mark, io.SeekStart); err != nil {
		l.bad = fmt.Errorf("wal: %s poisoned: seeking after a failed append: %w", l.path, err)
	}
}

// Sync forces every appended record to disk.
func (l *Log) Sync() error { return l.f.Sync() }

// ReadAt reads the log's own bytes, so a Rewrite can copy a byte range of
// the file it replaces instead of re-encoding it.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Rewrite atomically replaces the log's contents with the magic plus
// whatever fill writes — compaction. The replacement is built in path.tmp,
// fsynced (it supersedes records already promised durable; without the fsync
// a power loss after the rename could leave an empty file under the real
// name), renamed over the log, and becomes the append handle. On any failure
// the tmp handle is closed, the tmp file removed and the log left as it was.
func (l *Log) Rewrite(fill func(w io.Writer) error) error {
	if l.bad != nil {
		return l.bad
	}
	tmp := l.path + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		f.Close()
		l.fs.Remove(tmp) // best effort
		return err
	}
	if _, err := f.Write(l.magic[:]); err != nil {
		return abort(err)
	}
	if err := fill(f); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return abort(err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return abort(err)
	}
	old := l.f
	l.f, l.size = f, size
	return old.Close()
}

// Tail replays records that another process appended through its own handle
// since this one last looked, and moves the append position past them. It
// never truncates: bytes after the last intact record may be that process's
// write in flight.
func (l *Log) Tail(replay func(payload []byte) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	if int64(len(raw)) <= l.size {
		return nil
	}
	good, _, err := ScanFrames(raw[l.size:], l.max, replay)
	if err != nil && !errors.Is(err, ErrStop) {
		return fmt.Errorf("wal: %s: %w", l.path, err)
	}
	size := l.size + int64(good)
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	return nil
}

// Close closes the file. It does not sync.
func (l *Log) Close() error { return l.f.Close() }
