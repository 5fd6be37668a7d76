package fleet

import (
	"bytes"
	"math/rand"
	"testing"
)

func roundtrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := snappyEncode(nil, src)
	dec, err := snappyDecode(enc, len(src))
	if err != nil {
		t.Fatalf("decode (%d bytes in, %d encoded): %v", len(src), len(enc), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("roundtrip changed %d bytes to %d", len(src), len(dec))
	}
	return enc
}

func TestSnappyRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), // RLE: overlapping copy
		bytes.Repeat([]byte("the CVE wayback machine "), 400),
		make([]byte, 1<<16+17), // zeros, > max offset
	}
	// Incompressible random data must still roundtrip.
	noise := make([]byte, 100_000)
	rng.Read(noise)
	cases = append(cases, noise)
	// Mixed: repetitive with random islands, crossing the 64-byte copy
	// element and 60-byte literal header boundaries.
	mixed := bytes.Repeat([]byte("0123456789abcdef"), 64)
	for i := 0; i < len(mixed); i += 257 {
		mixed[i] = byte(rng.Intn(256))
	}
	cases = append(cases, mixed)

	for i, src := range cases {
		enc := roundtrip(t, src)
		if len(src) > 1000 && bytes.Count(src, []byte{src[0]}) == len(src) {
			if len(enc) > len(src)/10 {
				t.Errorf("case %d: constant input compressed to %d/%d bytes", i, len(enc), len(src))
			}
		}
	}
}

func TestSnappyCompressesEventBatches(t *testing.T) {
	events := testEvents(t, 500)
	var raw []byte
	var tmp []byte
	for i := range events {
		tmp, _, _ = encodeSpoolBatch(tmp, uint64(i), events[i:i+1])
		raw = append(raw, tmp...)
	}
	enc := snappyEncode(nil, raw)
	if len(enc) >= len(raw) {
		t.Fatalf("event batch did not compress: %d -> %d", len(raw), len(enc))
	}
	t.Logf("snappy: %d -> %d bytes (%.1fx)", len(raw), len(enc), float64(len(raw))/float64(len(enc)))
}

// TestSnappyDecodeRejectsCorrupt throws structured garbage at the decoder:
// it must error, never panic, never over-allocate.
func TestSnappyDecodeRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{}, // no preamble
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // unterminated uvarint
		{0x05},                   // declares 5 bytes, no body
		{0x05, 0x00},             // literal len 1, no byte
		{0x02, 0x01, 0x00, 0x00}, // copy1 with offset 0 into empty output
		{0x64, 0xf0},             // literal with truncated length byte
		{0x05, 0xfe, 0x01, 0x00}, // copy2 truncated
	}
	for i, src := range cases {
		if _, err := snappyDecode(src, 1<<20); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
	// Oversized preamble is rejected before allocation.
	huge := append([]byte(nil), 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := snappyDecode(huge, 1<<20); err == nil {
		t.Error("4GB preamble accepted")
	}
	// Random garbage: decode must never panic.
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		snappyDecode(buf[:n], 1<<20)
	}
}

func TestSnappyTrailingGarbageRejected(t *testing.T) {
	enc := snappyEncode(nil, []byte("hello hello hello hello"))
	enc = append(enc, 0x00, 0x41) // extra literal past declared length
	if _, err := snappyDecode(enc, 1<<20); err == nil {
		t.Error("output beyond declared length accepted")
	}
}
