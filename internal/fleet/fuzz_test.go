package fleet

import (
	"encoding/binary"
	"testing"

	"repro/internal/fuzzcorpus"
)

func fuzzDecodeBatchSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	events := testEvents(tb, 5)
	for _, codec := range []Codec{CodecRaw, CodecSnappy, CodecDeflate} {
		msg, err := encodeBatch(3, events, codec)
		if err != nil {
			tb.Fatal(err)
		}
		flipped := append([]byte(nil), msg...)
		flipped[len(flipped)/2] ^= 0x20 // corrupt the compressed body
		seeds = append(seeds, msg, msg[:len(msg)-4], flipped)
	}
	empty, err := encodeBatch(1, nil, CodecSnappy)
	if err != nil {
		tb.Fatal(err)
	}
	// A batch whose header declares a huge raw size with a tiny body.
	lying := []byte{msgBatch}
	lying = binary.LittleEndian.AppendUint64(lying, 9)
	lying = append(lying, byte(CodecSnappy))
	lying = binary.LittleEndian.AppendUint32(lying, 1)
	lying = binary.LittleEndian.AppendUint32(lying, maxBatchRaw)
	// A raw batch whose header declares far more events than its bytes can
	// hold — the count sizes an allocation, so this once reserved gigabytes.
	countLie := []byte{msgBatch}
	countLie = binary.LittleEndian.AppendUint64(countLie, 9)
	countLie = append(countLie, byte(CodecRaw))
	countLie = binary.LittleEndian.AppendUint32(countLie, 1<<29)
	countLie = binary.LittleEndian.AppendUint32(countLie, 8)
	countLie = append(countLie, make([]byte, 8)...)
	return append(seeds, empty, []byte{}, []byte{msgBatch}, append(lying, 0x00), countLie)
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from
// the same seed lists the fuzz targets f.Add. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzDecodeBatch", fuzzDecodeBatchSeeds(t))
	fuzzcorpus.Write(t, "FuzzRecords", fuzzRecordsSeeds(t))
}

// FuzzDecodeBatch hammers the batch decoder — the only fleet message whose
// payload holds untrusted variable-length structure (a declared event count,
// a declared decompressed size, and a compressed body) — across all three
// codecs. The decoder must never panic, must respect maxBatchRaw, and the
// scratch-reusing variant must agree with the allocating one on both the
// accept/reject decision and the decoded events.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range fuzzDecodeBatchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeBatch(data)
		scratch := make([]byte, 16)
		m2, _, err2 := decodeBatchScratch(data, scratch)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("decodeBatch err=%v but decodeBatchScratch err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if m.Seq != m2.Seq || len(m.Events) != len(m2.Events) {
			t.Fatalf("variants disagree: seq %d/%d, %d/%d events", m.Seq, m2.Seq, len(m.Events), len(m2.Events))
		}
		for i := range m.Events {
			if !eventsEqual(m.Events[i], m2.Events[i]) {
				t.Fatalf("event %d differs between decode variants", i)
			}
		}
		// Accepted batches re-encode and decode back to the same events.
		re, err := encodeBatch(m.Seq, m.Events, CodecRaw)
		if err != nil {
			t.Fatalf("re-encoding an accepted batch: %v", err)
		}
		back, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if back.Seq != m.Seq || len(back.Events) != len(m.Events) {
			t.Fatalf("re-encode round trip: seq %d/%d, %d/%d events", back.Seq, m.Seq, len(back.Events), len(m.Events))
		}
		for i := range back.Events {
			if !eventsEqual(back.Events[i], m.Events[i]) {
				t.Fatalf("re-encode round trip: event %d differs", i)
			}
		}
	})
}
