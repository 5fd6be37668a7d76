package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/eventstore"
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

type spoolBatch struct {
	seq    uint64
	events []ids.Event
	bytes  int64 // on-disk footprint, for compaction accounting
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
	log, err := wal.Open(fs, filepath.Join(dir, "spool.log"), spoolMagic, spoolMaxPayload, func(payload []byte) error {
		b, err := decodeSpoolBatch(payload)
		if err != nil {
			return err
		}
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

// spool batch payload: u64 seq | u32 count | framed events.
func encodeSpoolBatch(seq uint64, events []ids.Event) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	var tmp []byte
	for i := range events {
		tmp = eventstore.EncodeEvent(tmp[:0], &events[i])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tmp)))
		buf = append(buf, tmp...)
	}
	return buf
}

// encodeSpoolBatchCapped encodes as many leading events as fit under the
// spoolMaxPayload cap with sequence seq, returning the payload and the
// events left over for the next frame. A single event too large for a frame
// of its own is an error (encoded events are bounded far below the cap by
// their u16-length strings; this guards against a codec change breaking that
// invariant silently).
func encodeSpoolBatchCapped(dst []byte, seq uint64, events []ids.Event) ([]byte, []ids.Event, error) {
	buf := binary.LittleEndian.AppendUint64(dst[:0], seq)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // count, patched below
	var tmp []byte
	n := 0
	for i := range events {
		tmp = eventstore.EncodeEvent(tmp[:0], &events[i])
		if len(buf)+4+len(tmp) > spoolMaxPayload {
			if n == 0 {
				return nil, nil, fmt.Errorf("fleet: event encodes to %d bytes, beyond the %d-byte spool frame cap", len(tmp), spoolMaxPayload)
			}
			break
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tmp)))
		buf = append(buf, tmp...)
		n++
	}
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	return buf, events[n:], nil
}

func decodeSpoolBatch(b []byte) (spoolBatch, error) {
	var out spoolBatch
	if len(b) < 12 {
		return out, fmt.Errorf("fleet: spool batch header truncated")
	}
	out.seq = binary.LittleEndian.Uint64(b)
	count := binary.LittleEndian.Uint32(b[8:12])
	b = b[12:]
	out.events = make([]ids.Event, 0, count)
	for len(b) > 0 {
		if len(b) < 4 {
			return out, fmt.Errorf("fleet: spool event frame truncated")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return out, fmt.Errorf("fleet: spool event frame overruns record")
		}
		ev, err := eventstore.DecodeEvent(b[:n])
		if err != nil {
			return out, err
		}
		out.events = append(out.events, ev)
		b = b[n:]
	}
	if uint32(len(out.events)) != count {
		return out, fmt.Errorf("fleet: spool batch holds %d events, declared %d", len(out.events), count)
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
		payload, rest, err := encodeSpoolBatchCapped(sp.encBuf, seq, events)
		if err != nil {
			return 0, err
		}
		sp.encBuf = payload
		frame := wal.AppendFrame(sp.frameBuf[:0], payload)
		sp.frameBuf = frame
		if err := sp.log.Append(frame); err != nil {
			return 0, fmt.Errorf("fleet: spooling batch %d: %w", seq, err)
		}
		// Copy the kept events: pending outlives this call and must not
		// alias a slice the caller still owns.
		n := len(events) - len(rest)
		evs := append([]ids.Event(nil), events[:n]...)
		sp.lastSeq = seq
		sp.pending = append(sp.pending, spoolBatch{seq: seq, events: evs, bytes: int64(len(frame))})
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
