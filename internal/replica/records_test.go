package replica

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/eventstore"
	"repro/internal/fuzzcorpus"
)

// recordCodec is one decoder in this package and the encoder it mirrors.
type recordCodec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}

var recordCodecs = []recordCodec{
	{"RHello",
		func(b []byte) (any, error) { return decodeRHello(b) },
		func(v any) []byte { h := v.(rhello); return h.encode() }},
	{"RState",
		func(b []byte) (any, error) { return decodeProgressMsg(b, msgRState, "State") },
		func(v any) []byte { p := v.(progress); return encodeProgressMsg(msgRState, &p) }},
	{"RAck",
		func(b []byte) (any, error) { return decodeProgressMsg(b, msgRAck, "Ack") },
		func(v any) []byte { p := v.(progress); return encodeProgressMsg(msgRAck, &p) }},
	{"RAmends",
		func(b []byte) (any, error) { return decodeAmends(b) },
		func(v any) []byte { return encodeAmends(v.([]eventstore.Amendment)) }},
	{"RErr",
		func(b []byte) (any, error) { return decodeRErr(b) },
		func(v any) []byte { return encodeRErr(v.(string)) }},
}

func fuzzRecordsSeeds() [][]byte {
	p := progress{Counts: []uint64{5, 0, 9}, Amends: 1}
	seeds := [][]byte{
		(&rhello{Version: ProtocolVersion, ID: "r1", progress: p}).encode(),
		encodeProgressMsg(msgRState, &p),
		encodeProgressMsg(msgRAck, &progress{}),
		encodeAmends(goldenAmendments()),
		encodeAmends(nil),
		encodeRErr("diverged"),
	}
	for _, s := range seeds {
		seeds = append(seeds, s[:len(s)-1])
	}
	return append(seeds, []byte{}, binary.LittleEndian.AppendUint32([]byte{msgRAmends}, 0xFFFFFFFF))
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from the
// seed list FuzzRecords adds. Run with REGEN_FUZZ_CORPUS=1 after changing it.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzRecords", fuzzRecordsSeeds())
}

// FuzzRecords runs every replica wire decoder over the input. None may
// panic, and whatever one accepts must come back unchanged from its encoder
// and the same decoder.
func FuzzRecords(f *testing.F) {
	for _, seed := range fuzzRecordsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range recordCodecs {
			v, err := c.decode(data)
			if err != nil {
				continue
			}
			back, err := c.decode(c.encode(v))
			if err != nil {
				t.Fatalf("%s: re-encoded message rejected: %v", c.name, err)
			}
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("%s: round trip changed the message:\n got %+v\nwant %+v", c.name, back, v)
			}
		}
	})
}

// allocatedBy reports the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingCountsRejected: the shard and amendment counts size allocations,
// so a count the message's bytes cannot hold is an error that costs no more
// memory than the message itself.
func TestLyingCountsRejected(t *testing.T) {
	const body = 1 << 20
	progressMsg := func(n uint32) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{msgRState}, n), make([]byte, 8)...)
	}
	amendsMsg := func(n uint32) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{msgRAmends}, n), make([]byte, body)...)
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"progress count 2^32-1", func() error { _, err := decodeProgressMsg(progressMsg(0xFFFFFFFF), msgRState, "State"); return err }},
		{"progress count 4096 in 8 bytes", func() error { _, err := decodeProgressMsg(progressMsg(4096), msgRState, "State"); return err }},
		{"amends count 2^32-1", func() error { _, err := decodeAmends(amendsMsg(0xFFFFFFFF)); return err }},
		// As many records as 4-byte length prefixes would fit: each decoded
		// Amendment is ~50 times the size of its prefix.
		{"amends count body/4", func() error { _, err := decodeAmends(amendsMsg(body / 4)); return err }},
	}
	for _, c := range cases {
		var err error
		if n := allocatedBy(func() { err = c.decode() }); n > 4*body {
			t.Errorf("%s: decoding allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
