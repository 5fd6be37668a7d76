package eventstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/ids"
	"repro/internal/wal"
)

// indexEvery is the sparse offset index's stride: the index holds the log
// offset of every indexEvery-th event of a shard, so a ranged read of
// released history decodes at most indexEvery-1 events it does not return.
const indexEvery = 256

// readChunk is how many log bytes one ranged read fetches at a time.
const readChunk = 64 << 10

// resident is what a shard publishes to readers: its events from base on,
// plus the sparse offset index over its whole log (offs[k] is the log offset
// of event k*indexEvery). Appends publish a new resident whose slices extend
// the old ones; a release publishes one whose events start at the new base.
// Either way every slice a reader loaded stays valid and unchanged.
type resident struct {
	base   int
	events []ids.Event
	offs   []int64
}

func (r *resident) len() int { return r.base + len(r.events) }

func (r *resident) part() Part {
	return Part{Base: r.base, Events: r.events[:len(r.events):len(r.events)]}
}

// Part is one shard's history at a cut: Base events released to the shard's
// log, followed by Events, held in memory. Event k of the shard is
// Events[k-Base] when k >= Base; below Base only ReadRange (or Merge) can
// produce it.
type Part struct {
	Base   int
	Events []ids.Event
}

// Len returns the number of events the part covers, released ones included.
func (p Part) Len() int { return p.Base + len(p.Events) }

// Tail returns the part's events from the k-th on, which must be resident
// (k >= Base).
func (p Part) Tail(k int) ([]ids.Event, error) {
	if k < p.Base || k > p.Len() {
		return nil, fmt.Errorf("eventstore: events from %d are not resident (base %d, length %d)", k, p.Base, p.Len())
	}
	return p.Events[k-p.Base:], nil
}

// Release drops from memory each shard's events below counts[i] — the
// prefixes a timeline segment now durably holds — never past what the
// newest commit record covers. Released events stay readable through
// ReadRange, Merge and Snapshot, which decode them from the shard's log; the
// files do not change. Counts at or below a shard's base change nothing.
func (s *Store) Release(counts []int64) error {
	if len(counts) != len(s.shards) {
		return fmt.Errorf("eventstore: release of %d shards on a %d-shard store", len(counts), len(s.shards))
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		cur := sh.res.Load()
		n := min(int(counts[i]), int(sh.committed.Load()), cur.len())
		if n > cur.base {
			kept := cur.events[n-cur.base:]
			// The new array has room for what it keeps plus as many events as
			// the shard took in since the last release, up to the old array's
			// capacity: steady appends fill it instead of regrowing it, and an
			// array sized for a recovered history is not kept.
			size := min(cap(cur.events), len(kept)+sh.appended)
			events := make([]ids.Event, len(kept), max(size, len(kept)))
			copy(events, kept)
			sh.res.Store(&resident{base: n, events: events, offs: cur.offs})
			sh.appended = 0
		}
		sh.mu.Unlock()
	}
	return nil
}

// ReadRange calls fn for shard's events [from, to) in arrival order. Events
// below the shard's base are decoded from its log — CRC-checked, with one
// shared copy of each CVE and message string per call — and the rest are
// the resident ones. A decoded event is what the encoding holds: times come
// back in UTC without a monotonic reading, as they do after a restart. fn
// may read *ev but must neither modify nor keep it.
// A log that cannot produce a requested event (an I/O error, a corrupt or
// missing frame) fails the read; it never returns short.
func (s *Store) ReadRange(shard, from, to int, fn func(ev *ids.Event) error) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("eventstore: no shard %d", shard)
	}
	p := s.shards[shard].res.Load().part()
	if from < 0 || from > to || to > p.Len() {
		return fmt.Errorf("eventstore: shard %d: range [%d, %d) outside its %d events", shard, from, to, p.Len())
	}
	if from < p.Base {
		if err := s.readLog(shard, from, min(to, p.Base), make(map[string]string), fn); err != nil {
			return err
		}
		from = p.Base
	}
	for k := from; k < to; k++ {
		if err := fn(&p.Events[k-p.Base]); err != nil {
			return err
		}
	}
	return nil
}

var readBufs = sync.Pool{New: func() any { b := make([]byte, readChunk); return &b }}

// errRangeDone ends a frame scan once a ranged read has every event.
var errRangeDone = errors.New("eventstore: range read")

// readLog decodes shard's events [from, to) from its log, starting at the
// indexed offset at or before from. Released frames never move — shard logs
// only grow, and a rollback only ever truncates past the committed cut a
// release stays behind — so the read takes no lock.
func (s *Store) readLog(shard, from, to int, names map[string]string, fn func(ev *ids.Event) error) error {
	if from >= to {
		return nil
	}
	sh := s.shards[shard]
	offs := sh.res.Load().offs
	blk := from / indexEvery
	if blk >= len(offs) {
		return fmt.Errorf("eventstore: shard %d: event %d is past the offset index", shard, from)
	}
	off, skip, want := offs[blk], from-blk*indexEvery, to-from
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	var (
		ev     ids.Event
		fnErr  error
		failAt = func(what string, err error) error {
			return fmt.Errorf("eventstore: shard %d: reading event %d: %s: %w", shard, to-want, what, err)
		}
	)
	for want > 0 {
		buf := *bp
		n, err := sh.log.ReadAt(buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return failAt(fmt.Sprintf("log offset %d", off), err)
		}
		chunk := buf[:n]
		good, _, err := wal.ScanFrames(chunk, maxRecordLen, func(payload []byte) error {
			if skip > 0 {
				skip--
				return nil
			}
			if want == 0 {
				return errRangeDone
			}
			if err := DecodeEventInto(payload, &ev, names); err != nil {
				return err
			}
			want--
			if err := fn(&ev); err != nil {
				fnErr = err
				return err
			}
			return nil
		})
		switch {
		case fnErr != nil:
			return fnErr
		case err != nil && err != errRangeDone:
			return failAt(fmt.Sprintf("frame at log offset %d", off+int64(good)), err)
		case want == 0:
			return nil
		}
		off += int64(good)
		// The scan stopped short of the chunk's end: what is left is either
		// a frame the chunk cut off, or a frame that is not intact.
		rest := chunk[good:]
		if len(rest) >= wal.FrameHeaderLen {
			length := int(binary.LittleEndian.Uint32(rest))
			if length > maxRecordLen || wal.FrameHeaderLen+length <= len(rest) {
				return failAt("corrupt frame", fmt.Errorf("at log offset %d", off))
			}
			if need := wal.FrameHeaderLen + length; need > len(buf) {
				*bp = make([]byte, need)
			}
		}
		if n < len(buf) {
			return failAt("log ends", fmt.Errorf("at offset %d", off+int64(len(rest))))
		}
	}
	return nil
}

// Merge materializes a read-side view, the one place that computation is
// written: per-shard parts (a PublishedEvents or CommittedEvents cut)
// concatenated in shard order, their released events read back from the
// logs, stable-sorted into canonical order, with resolved amendments
// overlaid (so consumers see post-rescan labels without the shard files
// ever rewriting). Snapshot is this over the store's current view; read
// paths holding pinned parts (PublishedEvents, Amendments) call it to replay
// the identical computation later. The inputs are not modified.
func (s *Store) Merge(parts []Part, amends []Amendment) ([]ids.Event, error) {
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	all := make([]ids.Event, 0, n)
	names := make(map[string]string)
	for i, p := range parts {
		err := s.readLog(i, 0, p.Base, names, func(ev *ids.Event) error {
			all = append(all, *ev)
			return nil
		})
		if err != nil {
			return nil, err
		}
		all = append(all, p.Events...)
	}
	// Permute into canonical order in place, following each cycle of the
	// order once: all[j] takes the event at order[j].Index, and a visited
	// position's Index is marked -1.
	order := CanonicalOrder([][]ids.Event{all})
	for k := range order {
		if order[k].Index < 0 {
			continue
		}
		first, j := all[k], k
		for {
			src := int(order[j].Index)
			order[j].Index = -1
			if src == k {
				all[j] = first
				break
			}
			all[j] = all[src]
			j = src
		}
	}
	return applyAmendments(all, amends), nil
}
