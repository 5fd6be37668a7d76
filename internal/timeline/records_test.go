package timeline

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/wal"
)

// TestLyingCountsRejected: segment index and header counts size
// allocations, so a count its frame's bytes cannot hold must fail the parse
// without allocating more than the file itself — not crash the process
// with an out-of-memory error when the timeline opens.
func TestLyingCountsRejected(t *testing.T) {
	valid := encodeSegment(0, []int64{6, 4}, fuzzSeedEvents(3))
	headerLen := wal.FrameHeaderLen + int(binary.LittleEndian.Uint32(valid[len(segMagic):]))
	prefix := valid[:len(segMagic)+headerLen] // magic and the header frame
	u32 := func(b []byte, vs ...uint32) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	lyingHeader := binary.LittleEndian.AppendUint64(u32([]byte{tagHeader}, segVersion), 0)
	lyingHeader = u32(lyingHeader, 4096, 0)
	cases := []struct {
		name  string
		frame []byte
	}{
		{"time index 2^28 entries", u32([]byte{tagTime}, timeIndexEvery, 1<<28)},
		{"time index 2^32-1 entries", u32([]byte{tagTime}, timeIndexEvery, 0xFFFFFFFF)},
		{"version 1 CVE index in a version 2 segment", u32([]byte{tagCVEv1}, 1<<24)},
		{"header 4096 shards in 4 bytes", lyingHeader},
	}
	for _, c := range cases {
		file := wal.AppendFrame(append([]byte(nil), prefix...), c.frame)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseSegment("lying.seg", file)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: parsing allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
