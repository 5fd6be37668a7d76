package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/wal"
)

// Watermarks is the coordinator's per-sensor high-watermark journal: the
// durable record, kept alongside the eventstore, of the highest batch
// sequence applied from each sensor. A batch at or below its sensor's
// watermark has already been ingested — redelivery after a reconnect or a
// coordinator restart is dropped idempotently, which is what turns the wire
// protocol's at-least-once retransmission into exactly-once ingest.
//
// The journal is a wal.Log, one record per advance; on open the last record
// per sensor wins. It compacts to one record per sensor when the appended
// history grows past a threshold. Each advance is written and fsynced before
// the batch is acked, so an ack implies the watermark — and therefore the
// dedup decision — survives even power loss. That ordering is load-bearing:
// once acked, the sensor may prune the batch, and a watermark that regressed
// afterwards would ask for a sequence nobody can resend.
type Watermarks struct {
	mu    sync.Mutex
	log   *wal.Log
	marks map[string]uint64
}

var wmMagic = [8]byte{'F', 'W', 'M', 'K', 0x00, 0x01, '\n'}

const (
	// wmCompactAt triggers a rewrite once the journal grows past this size.
	wmCompactAt = 1 << 20
	// wmMaxRecord is the journal's record cap; a record is a u16-length
	// sensor id plus a sequence number, far below it.
	wmMaxRecord = 1 << 20
)

// OpenWatermarks opens (creating if needed) the journal in dir — typically
// the eventstore directory, so store and watermarks live or die together.
func OpenWatermarks(dir string) (*Watermarks, error) {
	return OpenWatermarksFS(nil, dir)
}

// OpenWatermarksFS is OpenWatermarks against an explicit filesystem; nil
// means the real one. On open the last record per sensor wins.
func OpenWatermarksFS(fs fault.FS, dir string) (*Watermarks, error) {
	fs = fault.Or(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Watermarks{marks: map[string]uint64{}}
	log, err := wal.Open(fs, filepath.Join(dir, "FLEET-WATERMARKS.log"), wmMagic, wmMaxRecord, mergeMarkInto(w.marks))
	if err != nil {
		return nil, fmt.Errorf("fleet: watermark journal: %w", err)
	}
	w.log = log
	return w, nil
}

// A mark record is string16 sensor id | u64 sequence.
func encodeMark(id string, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(wal.AppendString16(nil, id), seq)
}

func decodeMark(b []byte) (string, uint64, error) {
	c := wal.NewCursor(b)
	id, seq := c.String16(), c.U64()
	return id, seq, c.Finish("watermark record")
}

// mergeMarkInto returns the frame callback that decodes one mark record and
// raises the sensor's entry in marks to it.
func mergeMarkInto(marks map[string]uint64) func(payload []byte) error {
	return func(payload []byte) error {
		id, seq, err := decodeMark(payload)
		if err != nil {
			return err
		}
		if seq > marks[id] {
			marks[id] = seq
		}
		return nil
	}
}

// Get returns the sensor's high watermark (0 if never seen).
func (w *Watermarks) Get(id string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.marks[id]
}

// Advance durably raises the sensor's watermark to seq. Regressions are
// rejected: the caller applies batches in sequence order, so a smaller seq
// means a logic error, not a retry.
func (w *Watermarks) Advance(id string, seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur := w.marks[id]; seq <= cur {
		return fmt.Errorf("fleet: watermark for %s would regress %d -> %d", id, cur, seq)
	}
	return w.advanceLocked(map[string]uint64{id: seq})
}

// AdvanceAll durably raises several sensors' watermarks with one write and
// one fsync — the group-commit path when the sink has no commit record of
// its own. Entries at or below the current mark are skipped (the committer
// computes a max per sensor, but defensive beats sorry); an empty or fully
// stale map is free.
func (w *Watermarks) AdvanceAll(marks map[string]uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.advanceLocked(marks)
}

func (w *Watermarks) advanceLocked(marks map[string]uint64) error {
	var frames []byte
	for id, seq := range marks {
		if seq > w.marks[id] {
			frames = wal.AppendFrame(frames, encodeMark(id, seq))
		}
	}
	if len(frames) == 0 {
		return nil
	}
	// The acks that follow promise each sensor it may prune its batches, so
	// the records must be on disk — not in the page cache — first; one fsync
	// covers every sensor in the group.
	if err := w.log.AppendSync(frames); err != nil {
		return fmt.Errorf("fleet: advancing %d watermarks: %w", len(marks), err)
	}
	w.mergeLocked(marks)
	if w.log.Size() >= wmCompactAt {
		// Rewrite the journal as one record per sensor.
		return w.log.Rewrite(func(dst io.Writer) error {
			_, err := dst.Write(w.encodeLocked(nil))
			return err
		})
	}
	return nil
}

func (w *Watermarks) mergeLocked(marks map[string]uint64) {
	for id, seq := range marks {
		if seq > w.marks[id] {
			w.marks[id] = seq
		}
	}
}

// adopt merges marks into memory without journalling. Used when the marks'
// durability lives elsewhere: recovering them from the eventstore's commit
// record at startup, and tracking them after each commit thereafter.
func (w *Watermarks) adopt(marks map[string]uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mergeLocked(marks)
}

// encodeWith returns the commit-record meta encoding of the current marks
// merged with extra (max per sensor): the journal's framed records, sorted
// by sensor id, without the file magic. Deterministic so an idle commit
// re-encoding unchanged marks is byte-identical and the store's no-op fast
// path can skip the fsync.
func (w *Watermarks) encodeWith(extra map[string]uint64) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.encodeLocked(extra)
}

func (w *Watermarks) encodeLocked(extra map[string]uint64) []byte {
	merged := make(map[string]uint64, len(w.marks)+len(extra))
	for id, seq := range w.marks {
		merged[id] = seq
	}
	for id, seq := range extra {
		if seq > merged[id] {
			merged[id] = seq
		}
	}
	ids := make([]string, 0, len(merged))
	for id := range merged {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf []byte
	for _, id := range ids {
		buf = wal.AppendFrame(buf, encodeMark(id, merged[id]))
	}
	return buf
}

// decodeMeta parses an encodeWith payload back into marks.
func decodeMeta(b []byte) (map[string]uint64, error) {
	out := map[string]uint64{}
	good, _, err := wal.ScanFrames(b, wmMaxRecord, mergeMarkInto(out))
	if err != nil {
		return nil, err
	}
	if good != len(b) {
		return nil, fmt.Errorf("fleet: %d stray bytes in watermark commit meta", len(b)-good)
	}
	return out, nil
}

// All returns a copy of every sensor's watermark.
func (w *Watermarks) All() map[string]uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]uint64, len(w.marks))
	for id, seq := range w.marks {
		out[id] = seq
	}
	return out
}

// Sync fsyncs the journal.
func (w *Watermarks) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Sync()
}

// Close syncs and closes the journal.
func (w *Watermarks) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Sync(); err != nil {
		w.log.Close()
		return err
	}
	return w.log.Close()
}
