package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/wal"
)

// spool is the sensor's durable outbound queue: every batch headed upstream
// is first appended (with its assigned sequence number) to a wal.Log, so a
// dead coordinator — or a dead sensor — loses nothing. Every frame written
// honors the log's record cap (Add splits larger batches), so recovery never
// has to refuse the file over a batch of its own.
//
// Acks only advance an in-memory watermark; the file compacts (rewrites with
// just the unacked suffix) once the acked prefix dominates, so steady-state
// disk use tracks the unacked window, not history.
type spool struct {
	mu      sync.Mutex
	log     *wal.Log
	pending []spoolBatch // unacked, ascending seq
	acked   uint64       // highest acked (and pruned) sequence
	lastSeq uint64       // highest assigned sequence
	// ackedBytes estimates the on-disk bytes belonging to acked batches,
	// the compaction trigger.
	ackedBytes int64
	// encBuf and frameBuf are Add's reusable encode and frame scratch —
	// spooling is once per shipped batch, so per-call allocations here show
	// up directly in sensor throughput.
	encBuf   []byte
	frameBuf []byte
}

// spoolBatch is one pending record, held as the bytes it was spooled as:
// the shipper compresses list onto the wire as it stands (encodeBatchList),
// so a pending batch costs its encoding once and never an ids.Event.
type spoolBatch struct {
	seq   uint64
	count int    // events in list
	list  []byte // the record's event list (appendEvents), owned by the batch
	bytes int64  // on-disk footprint, for compaction accounting
}

var spoolMagic = [8]byte{'F', 'S', 'P', 'L', 0x00, 0x01, '\n'}

// spoolCompactAt triggers a rewrite once this many acked bytes accumulate.
const spoolCompactAt = 4 << 20

// spoolMaxPayload caps one spooled frame's payload — the log's record cap,
// beyond which recovery refuses the file. Add splits bigger appends across
// consecutive sequence numbers instead.
const spoolMaxPayload = 1 << 20

// openSpool opens (creating if needed) the spool log in dir.
func openSpool(fs fault.FS, dir string) (*spool, error) {
	fs = fault.Or(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp := &spool{}
	names := make(map[string]string)
	log, err := wal.Open(fs, filepath.Join(dir, "spool.log"), spoolMagic, spoolMaxPayload, func(payload []byte) error {
		b, err := decodeSpoolBatch(payload, names)
		if err != nil {
			return err
		}
		b.list = bytes.Clone(b.list) // payload is the scan's buffer
		b.bytes = int64(wal.FrameHeaderLen + len(payload))
		if b.seq > sp.lastSeq {
			sp.lastSeq = b.seq
		}
		sp.pending = append(sp.pending, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: spool: %w", err)
	}
	sp.log = log
	return sp, nil
}

// encodeSpoolBatch encodes a spool record — u64 seq | u32 count | event list
// (appendEvents) — holding as many leading events as fit under the
// spoolMaxPayload cap, building into dst's storage. It returns the payload
// and the events left over for the next record. A single event too large
// for a record of its own is an error (encoded events are bounded far below
// the cap by their u16-length strings; this guards against a codec change
// breaking that invariant silently).
func encodeSpoolBatch(dst []byte, seq uint64, events []ids.Event) ([]byte, []ids.Event, error) {
	buf := binary.LittleEndian.AppendUint64(dst[:0], seq)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // count, patched below
	buf, n := appendEvents(buf, events, spoolMaxPayload)
	if n == 0 && len(events) > 0 {
		return nil, nil, fmt.Errorf("fleet: an event encodes beyond the %d-byte spool record cap", spoolMaxPayload)
	}
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	return buf, events[n:], nil
}

// decodeSpoolBatch reads an encodeSpoolBatch record. Every event is decoded
// (through names) and validated, so a record holding a malformed event is
// refused, but the batch keeps only the event list, which aliases b.
func decodeSpoolBatch(b []byte, names map[string]string) (spoolBatch, error) {
	c := wal.NewCursor(b)
	out := spoolBatch{seq: c.U64(), count: c.Count(minEventEntry)}
	out.list = c.Rest()
	if err := c.Finish("spool batch"); err != nil {
		return spoolBatch{}, err
	}
	lc := wal.NewCursor(out.list)
	readEvents(&lc, out.count, names)
	if err := lc.Finish("spool batch"); err != nil {
		return spoolBatch{}, err
	}
	return out, nil
}

// Add assigns sequence numbers to events, appends them durably, and returns
// the last assigned sequence. A batch whose encoding would exceed the
// recovery scan limit is split across consecutive sequence numbers, so every
// frame written is one recovery can read back.
func (sp *spool) Add(events []ids.Event) (uint64, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for len(events) > 0 {
		seq := sp.lastSeq + 1
		payload, rest, err := encodeSpoolBatch(sp.encBuf, seq, events)
		if err != nil {
			return 0, err
		}
		sp.encBuf = payload
		frame := wal.AppendFrame(sp.frameBuf[:0], payload)
		sp.frameBuf = frame
		if err := sp.log.Append(frame); err != nil {
			return 0, fmt.Errorf("fleet: spooling batch %d: %w", seq, err)
		}
		// Keep the record's event list, cloned out of the reused encode
		// buffer: the shipper sends these bytes, so pending holds each event
		// once, encoded, and never aliases the caller's slice.
		sp.lastSeq = seq
		sp.pending = append(sp.pending, spoolBatch{
			seq:   seq,
			count: len(events) - len(rest),
			list:  bytes.Clone(payload[12:]),
			bytes: int64(len(frame)),
		})
		events = rest
	}
	return sp.lastSeq, nil
}

// AckTo drops every batch with seq <= w. Compaction happens opportunistically
// once acked bytes both pass the threshold and dominate the file, so each
// rewrite retires at least as many bytes as it copies — without the dominance
// check, a deep pending backlog would be re-encoded on every threshold
// crossing, turning acks quadratic.
func (sp *spool) AckTo(w uint64) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if w <= sp.acked {
		return nil
	}
	for len(sp.pending) > 0 && sp.pending[0].seq <= w {
		sp.ackedBytes += sp.pending[0].bytes
		sp.pending = sp.pending[1:]
	}
	if w > sp.acked {
		sp.acked = w
	}
	if w > sp.lastSeq {
		// The coordinator has applied sequences this spool no longer
		// remembers (state lost to a torn tail or a fresh StateDir). Adopt
		// its numbering so freshly assigned sequences never collide with
		// already-applied ones and get dropped as duplicates.
		sp.lastSeq = w
	}
	if sp.ackedBytes >= spoolCompactAt && sp.ackedBytes*2 >= sp.log.Size() {
		return sp.compactLocked()
	}
	return nil
}

// compactLocked rewrites the log with only the unacked suffix. Acks are
// cumulative, so the pending batches are always a contiguous tail of the
// file; the rewrite copies that byte range as-is rather than re-encoding
// every pending event (which made deep-backlog compaction the hottest path
// in the whole shipper).
func (sp *spool) compactLocked() error {
	var pendBytes int64
	for _, b := range sp.pending {
		pendBytes += b.bytes
	}
	err := sp.log.Rewrite(func(w io.Writer) error {
		_, err := io.Copy(w, io.NewSectionReader(sp.log, sp.log.Size()-pendBytes, pendBytes))
		return err
	})
	if err == nil {
		sp.ackedBytes = 0
	}
	return err
}

// NextAfter returns the first pending batch with seq > after.
func (sp *spool) NextAfter(after uint64) (spoolBatch, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, b := range sp.pending {
		if b.seq > after {
			return b, true
		}
	}
	return spoolBatch{}, false
}

// Depth returns how many batches are spooled but unacked.
func (sp *spool) Depth() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.pending)
}

// LastSeq returns the highest assigned sequence number.
func (sp *spool) LastSeq() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.lastSeq
}

// Acked returns the highest acked sequence number.
func (sp *spool) Acked() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.acked
}

// Sync fsyncs the log.
func (sp *spool) Sync() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.log.Sync()
}

// Close syncs and closes the log.
func (sp *spool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err := sp.log.Sync(); err != nil {
		sp.log.Close()
		return err
	}
	return sp.log.Close()
}
