package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/wal"
)

// events decodes a spooled batch's event list, for tests that inspect what
// a batch holds; the spool itself keeps only the encoded bytes.
func (b spoolBatch) events() []ids.Event {
	c := wal.NewCursor(b.list)
	evs := readEvents(&c, b.count, nil)
	if err := c.Finish("spooled events"); err != nil {
		panic(err)
	}
	return evs
}

func TestSpoolAddAckRecover(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(t, 30)
	for i := 0; i < 10; i++ {
		seq, err := sp.Add(events[i*3 : i*3+3])
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d assigned seq %d", i, seq)
		}
	}
	if sp.Depth() != 10 || sp.LastSeq() != 10 {
		t.Fatalf("depth %d lastSeq %d", sp.Depth(), sp.LastSeq())
	}
	if err := sp.AckTo(4); err != nil {
		t.Fatal(err)
	}
	if sp.Depth() != 6 || sp.Acked() != 4 {
		t.Fatalf("after ack: depth %d acked %d", sp.Depth(), sp.Acked())
	}
	// Stale (regressive) acks are no-ops.
	if err := sp.AckTo(2); err != nil {
		t.Fatal(err)
	}
	if sp.Acked() != 4 {
		t.Fatalf("ack regressed to %d", sp.Acked())
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: acks are in-memory only, so all 10 batches replay; sequence
	// numbering continues where it left off.
	sp, err = openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.Depth() != 10 || sp.LastSeq() != 10 {
		t.Fatalf("recovered depth %d lastSeq %d", sp.Depth(), sp.LastSeq())
	}
	b, ok := sp.NextAfter(4)
	if !ok || b.seq != 5 || len(b.events()) != 3 {
		t.Fatalf("NextAfter(4): ok=%v seq=%d n=%d", ok, b.seq, len(b.events()))
	}
	if !eventsEqual(b.events()[0], events[12]) {
		t.Fatalf("recovered batch 5 starts with %+v, want %+v", b.events()[0], events[12])
	}
	if seq, err := sp.Add(events[:1]); err != nil || seq != 11 {
		t.Fatalf("post-recovery Add: seq=%d err=%v", seq, err)
	}
	if _, ok := sp.NextAfter(11); ok {
		t.Fatal("NextAfter past the end returned a batch")
	}
}

func TestSpoolTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(t, 4)
	for i := 0; i < 4; i++ {
		if _, err := sp.Add(events[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spool.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-frame: drop the last 5 bytes (a crashed write).
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.Depth() != 3 || sp.LastSeq() != 3 {
		t.Fatalf("torn tail: depth %d lastSeq %d, want 3/3", sp.Depth(), sp.LastSeq())
	}
	// The torn batch's sequence is reassigned — redelivery, not loss.
	if seq, err := sp.Add(events[3:4]); err != nil || seq != 4 {
		t.Fatalf("re-add after tear: seq=%d err=%v", seq, err)
	}
}

// bigEvents returns n events whose encodings are ~sz bytes each, for
// exercising the frame cap.
func bigEvents(t testing.TB, n, sz int) []ids.Event {
	t.Helper()
	out := testEvents(t, n)
	msg := strings.Repeat("x", sz)
	for i := range out {
		out[i].Msg = msg
	}
	return out
}

// TestSpoolSplitsOversizedAdd: one Add whose encoding exceeds the recovery
// scan limit must split into several frames, each readable back — written
// as a single frame it would be truncated as corruption on reopen, silently
// dropping the batch and every later one.
func TestSpoolSplitsOversizedAdd(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	// ~40 events x ~60KB ≈ 2.4MB encoded: needs at least 3 frames.
	events := bigEvents(t, 40, 60<<10)
	last, err := sp.Add(events)
	if err != nil {
		t.Fatal(err)
	}
	if last < 3 {
		t.Fatalf("2.4MB batch fit in %d frame(s); the cap is not splitting", last)
	}
	if sp.Depth() != int(last) {
		t.Fatalf("depth %d, want %d", sp.Depth(), last)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must see every split frame and every event, in order.
	sp, err = openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.LastSeq() != last || sp.Depth() != int(last) {
		t.Fatalf("recovered lastSeq=%d depth=%d, want %d/%d", sp.LastSeq(), sp.Depth(), last, last)
	}
	var got []ids.Event
	for seq := uint64(0); ; {
		b, ok := sp.NextAfter(seq)
		if !ok {
			break
		}
		got = append(got, b.events()...)
		seq = b.seq
	}
	if len(got) != len(events) {
		t.Fatalf("recovered %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d corrupted across the split", i)
		}
	}
}

// TestSpoolAddDoesNotAliasCaller: the spool must copy what it retains; a
// caller that reuses its batch slice must not corrupt pending batches.
func TestSpoolAddDoesNotAliasCaller(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	events := testEvents(t, 3)
	batch := append([]ids.Event(nil), events...)
	if _, err := sp.Add(batch); err != nil {
		t.Fatal(err)
	}
	batch[0].Msg = "clobbered"
	b, ok := sp.NextAfter(0)
	if !ok || !eventsEqual(b.events()[0], events[0]) {
		t.Fatalf("pending batch aliased the caller's slice: %+v", b.events()[0])
	}
}

// TestSpoolRefusesIntactOversizedFrame: a complete CRC-valid frame beyond
// the scan limit is real data, not a torn tail; open must fail loudly
// rather than truncate it (and everything after it) away.
func TestSpoolRefusesIntactOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Add(testEvents(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spool.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oversize := wal.AppendFrame(raw, make([]byte, spoolMaxPayload+1))
	if err := os.WriteFile(path, oversize, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(nil, dir); err == nil {
		t.Fatal("spool with an intact oversized frame opened (and truncated it) silently")
	}
	// A torn oversize frame is still just a torn tail: recoverable.
	if err := os.WriteFile(path, oversize[:len(oversize)-64], 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = openSpool(nil, dir)
	if err != nil {
		t.Fatalf("torn oversized tail not truncated: %v", err)
	}
	sp.Close()
}

// TestSpoolAdoptsForeignWatermark: when the coordinator's watermark is ahead
// of everything this spool remembers (sensor state lost), AckTo must adopt
// that numbering — otherwise fresh batches would reuse applied sequences and
// be dropped as duplicates forever.
func TestSpoolAdoptsForeignWatermark(t *testing.T) {
	sp, err := openSpool(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.AckTo(7); err != nil {
		t.Fatal(err)
	}
	if sp.LastSeq() != 7 {
		t.Fatalf("lastSeq %d after adopting watermark 7", sp.LastSeq())
	}
	seq, err := sp.Add(testEvents(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("next batch got seq %d, want 8 (would be dropped as a duplicate)", seq)
	}
}

// TestSpoolReconcileRespoolsCollidingBatches: a coordinator that applied
// batches this spool then lost (here a fresh state dir against watermark 2)
// already holds sequences 1 and 2, which batches spooled before the first
// handshake took. Reconcile must spool them again past the watermark, durably,
// instead of letting the ack drop them as duplicates; a later handshake only
// acks.
func TestSpoolReconcileRespoolsCollidingBatches(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	sp, err := openSpool(fs, "state")
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ { // seqs 1, 2, 3 holding 1, 2 and 3 events
		if _, err := sp.Add(testEvents(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Reconcile(2); err != nil {
		t.Fatal(err)
	}
	pendingCounts := func(sp *spool) map[uint64]int {
		out := map[uint64]int{}
		for _, b := range sp.pending {
			out[b.seq] = b.count
		}
		return out
	}
	want := map[uint64]int{3: 3, 4: 1, 5: 2}
	if got := pendingCounts(sp); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reconciling at 2: pending seq->events %v, want %v", got, want)
	}
	if err := sp.Reconcile(4); err != nil {
		t.Fatal(err)
	}
	if got, want := pendingCounts(sp), map[uint64]int{5: 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a later handshake at 4: pending %v, want %v", got, want)
	}
	// The copies survive a crash: the next process recovers them and its
	// handshake, at the coordinator's watermark 3, prunes only the originals.
	fs.Crash()
	sp.Close()
	fs.Restart()
	sp, err = openSpool(fs, "state")
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Reconcile(3); err != nil {
		t.Fatal(err)
	}
	if got, want := pendingCounts(sp), map[uint64]int{4: 1, 5: 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a crash: pending %v, want %v", got, want)
	}
}

func TestSpoolRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "spool.log"), []byte("not a spool at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(nil, dir); err == nil {
		t.Fatal("foreign file opened as spool")
	}
}

func TestSpoolCompaction(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	// Each batch is ~60KB encoded; ack enough to cross the 4MB trigger.
	events := testEvents(t, 500)
	var last uint64
	for i := 0; i < 120; i++ {
		seq, err := sp.Add(events)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	before, err := os.Stat(filepath.Join(dir, "spool.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.AckTo(last - 1); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, "spool.log"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	// The surviving batch is intact and appends continue.
	b, ok := sp.NextAfter(last - 1)
	if !ok || b.seq != last || len(b.events()) != len(events) {
		t.Fatalf("post-compaction batch: ok=%v seq=%d n=%d", ok, b.seq, len(b.events()))
	}
	if seq, err := sp.Add(events[:1]); err != nil || seq != last+1 {
		t.Fatalf("post-compaction Add: seq=%d err=%v", seq, err)
	}
}

func TestWatermarksAdvanceRecoverCompact(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWatermarks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if w.Get("nope") != 0 {
		t.Fatal("unknown sensor has nonzero watermark")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.Advance("s1", seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance("s2", 100); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance("s1", 5); err == nil {
		t.Fatal("non-advancing watermark accepted")
	}
	if err := w.Advance("s1", 3); err == nil {
		t.Fatal("regressing watermark accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = OpenWatermarks(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.All(); len(got) != 2 || got["s1"] != 5 || got["s2"] != 100 {
		t.Fatalf("recovered marks %v", got)
	}

	// Torn tail: drop bytes off the journal; earlier records still recover.
	path := filepath.Join(dir, "FLEET-WATERMARKS.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWatermarks(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Get("s1") != 5 {
		t.Fatalf("torn journal lost s1: %d", w.Get("s1"))
	}
	// s2's single record was the tail and is gone — its batches redeliver.
	if w.Get("s2") != 0 {
		t.Fatalf("torn tail kept s2 at %d", w.Get("s2"))
	}
}

// TestSpoolCompactAbortLeaksNothing drives compaction into every failure
// branch (tmp create, copy, fsync, rename) on a simulated filesystem and
// asserts each abort leaves no stranded spool.tmp and no leaked handle —
// then that the spool still compacts and serves batches once the fault
// clears. A leaked tmp would shadow the next compaction's rename; a leaked
// handle is a descriptor exhausted per ENOSPC retry.
func TestSpoolCompactAbortLeaksNothing(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	sp, err := openSpool(fs, "spool")
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	events := testEvents(t, 50)
	var last uint64
	for i := 0; i < 4; i++ {
		if last, err = sp.Add(events); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.AckTo(last - 1); err != nil {
		t.Fatal(err)
	}
	baseline := fs.OpenHandles()
	for _, op := range []string{"open", "write", "sync", "rename"} {
		fs.FailWith(func(o, name string) error {
			if o == op && strings.HasSuffix(name, ".tmp") {
				return fault.ErrInjected
			}
			return nil
		})
		sp.mu.Lock()
		err := sp.compactLocked()
		sp.mu.Unlock()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("compact with %s fault: err=%v, want injected", op, err)
		}
		for _, name := range fs.Files() {
			if strings.HasSuffix(name, ".tmp") {
				t.Fatalf("compact aborted at %s stranded %s", op, name)
			}
		}
		if got := fs.OpenHandles(); got != baseline {
			t.Fatalf("compact aborted at %s leaked handles: %d, want %d", op, got, baseline)
		}
	}
	fs.FailWith(nil)
	sp.mu.Lock()
	err = sp.compactLocked()
	sp.mu.Unlock()
	if err != nil {
		t.Fatalf("compact after faults cleared: %v", err)
	}
	if b, ok := sp.NextAfter(last - 1); !ok || b.seq != last || len(b.events()) != len(events) {
		t.Fatalf("post-compaction batch: ok=%v seq=%d n=%d", ok, b.seq, len(b.events()))
	}
	if _, err := sp.Add(events[:1]); err != nil {
		t.Fatalf("post-compaction Add: %v", err)
	}
}

// TestSpoolShipsSpooledBytes: the wire batch the shipper builds from a
// spooled record's event list is byte-identical to encoding the events
// afresh, for every codec — for a batch just added and for one recovered
// from the file at open.
func TestSpoolShipsSpooledBytes(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	events := goldenEvents(t)
	seq, err := sp.Add(events)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, sp *spool) {
		t.Helper()
		b, ok := sp.NextAfter(seq - 1)
		if !ok || b.seq != seq || b.count != len(events) {
			t.Fatalf("%s: NextAfter: ok=%v seq=%d count=%d", label, ok, b.seq, b.count)
		}
		for _, codec := range []Codec{CodecRaw, CodecDeflate, CodecSnappy} {
			want, err := encodeBatch(seq, events, codec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeBatchList(nil, b.seq, b.count, b.list, codec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %v wire batch from the spooled list differs from encodeBatch", label, codec)
			}
		}
	}
	check("added", sp)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if sp, err = openSpool(nil, dir); err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	check("recovered", sp)
}

// TestSpoolRefusesCorruptEvent: a record whose frame is intact (its CRC
// matches) but whose event list holds one event that does not decode is
// refused at open, though the spool keeps only the list's bytes.
func TestSpoolRefusesCorruptEvent(t *testing.T) {
	payload, _, err := encodeSpoolBatch(nil, 1, testEvents(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The second event's source address length: seq and count, then the
	// first entry, then the second entry's length prefix and its time.
	first := int(binary.LittleEndian.Uint32(payload[12:]))
	payload[12+4+first+4+12] = 7
	if _, err := decodeSpoolBatch(payload, nil); err == nil {
		t.Fatal("the corrupted record decodes")
	}
	dir := t.TempDir()
	file := wal.AppendFrame(append([]byte(nil), spoolMagic[:]...), payload)
	if err := os.WriteFile(filepath.Join(dir, "spool.log"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if sp, err := openSpool(nil, dir); err == nil {
		sp.Close()
		t.Fatal("a spool record holding a corrupt event opened")
	}
}
