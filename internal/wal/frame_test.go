package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/fuzzcorpus"
)

// fuzzMaxFrame is the fleet wire protocol's frame limit, the cap the stream
// codec runs under in production.
const fuzzMaxFrame = 16 << 20

func fuzzReadFrameSeeds(tb testing.TB) [][]byte {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, payload, fuzzMaxFrame); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	torn := frame([]byte("torn mid-payload"))
	corrupt := append([]byte(nil), frame([]byte("crc mismatch"))...)
	corrupt[len(corrupt)-1] ^= 0x01
	return [][]byte{
		frame([]byte("hello fleet")),
		frame(nil),
		frame(binary.LittleEndian.AppendUint64([]byte{4}, 42)), // a fleet Ack message
		{},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // length far past the limit
		torn[:len(torn)-3],
		corrupt,
	}
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from the
// same seed list the fuzz target f.Adds. Run with REGEN_FUZZ_CORPUS=1 after
// changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzReadFrame", fuzzReadFrameSeeds(t))
}

// FuzzReadFrame feeds arbitrary bytes to the stream framing — the first thing
// either end of a fleet or replica connection does with untrusted input. The
// frame reader must never panic, never return a payload larger than its
// limit, and must reject any payload whose CRC does not match. It also checks
// the round-trip property: any payload the writer accepts must read back
// intact.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzReadFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil, fuzzMaxFrame)
		if err == nil {
			if len(payload) > fuzzMaxFrame {
				t.Fatalf("accepted a %d-byte payload past the %d frame limit", len(payload), fuzzMaxFrame)
			}
			// An accepted frame's header must actually describe it.
			if len(data) < FrameHeaderLen+len(payload) {
				t.Fatalf("returned %d payload bytes from %d input bytes", len(payload), len(data))
			}
			declared := binary.LittleEndian.Uint32(data[0:4])
			if int(declared) != len(payload) {
				t.Fatalf("payload is %d bytes, header declared %d", len(payload), declared)
			}
			if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(data[4:8]) {
				t.Fatal("accepted a frame whose CRC does not cover its payload")
			}
			// The buffer scanner must agree with the stream reader.
			var scanned []byte
			good, _, serr := ScanFrames(data, fuzzMaxFrame, func(p []byte) error {
				if scanned == nil {
					scanned = append([]byte{}, p...)
				}
				return nil
			})
			if serr != nil || good < FrameHeaderLen+len(payload) || !bytes.Equal(scanned, payload) {
				t.Fatalf("ScanFrames disagrees with ReadFrame: good=%d err=%v", good, serr)
			}
		}

		// Round trip: the fuzz input as a payload must survive the writer.
		if len(data) > fuzzMaxFrame {
			return
		}
		var b bytes.Buffer
		if err := WriteFrame(&b, data, fuzzMaxFrame); err != nil {
			t.Fatalf("WriteFrame rejected a %d-byte payload: %v", len(data), err)
		}
		back, err := ReadFrame(bytes.NewReader(b.Bytes()), nil, fuzzMaxFrame)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip corrupted payload: sent %d bytes, got %d back", len(data), len(back))
		}
	})
}
