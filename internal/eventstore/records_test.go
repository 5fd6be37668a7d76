package eventstore

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
	"repro/internal/packet"
)

// recordCodec is one decoder in this package and the encoder it mirrors.
type recordCodec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}

var recordCodecs = []recordCodec{
	{"event",
		func(b []byte) (any, error) { return DecodeEvent(b) },
		func(v any) []byte { ev := v.(ids.Event); return EncodeEvent(nil, &ev) }},
	{"amendment",
		func(b []byte) (any, error) { return DecodeAmendment(b) },
		func(v any) []byte { a := v.(Amendment); return EncodeAmendment(nil, &a) }},
	{"commit record",
		func(b []byte) (any, error) { return decodeCommitRecord(b) },
		func(v any) []byte { r := v.(*commitRecord); return encodeCommitRecord(r.sizes, r.meta) }},
}

func fuzzRecordsSeeds() [][]byte {
	v6 := testEvent(2)
	v6.Src = packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::1"), Port: 1}
	v6.Ambiguous = true
	v6.Published = time.Time{}
	a := amendFor(testEvent(4), 990001, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), "2020-9999", 3)
	seeds := [][]byte{
		EncodeEvent(nil, &ids.Event{}),
		EncodeEvent(nil, &v6),
		EncodeAmendment(nil, &a),
		encodeCommitRecord([]int64{8, 120, 64}, []byte("meta")),
		encodeCommitRecord([]int64{8}, nil),
	}
	for _, s := range seeds {
		seeds = append(seeds, s[:len(s)-1])
	}
	return append(seeds, []byte{}, binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from the
// seed list FuzzRecords adds. Run with REGEN_FUZZ_CORPUS=1 after changing it.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzRecords", fuzzRecordsSeeds())
}

// FuzzRecords runs every record decoder in this package — events,
// amendments and commit records, all read back from disk — over the input.
// None may panic, and whatever one accepts must come back unchanged from its
// encoder and the same decoder.
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
				t.Fatalf("%s: re-encoded record rejected: %v", c.name, err)
			}
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("%s: round trip changed the record:\n got %+v\nwant %+v", c.name, back, v)
			}
		}
	})
}

// TestCommitRecordLyingCountsRejected: the shard count sizes an allocation,
// so one the record's bytes cannot hold is an error.
func TestCommitRecordLyingCountsRejected(t *testing.T) {
	valid := encodeCommitRecord([]int64{8, 16}, []byte("m"))
	for _, c := range []struct {
		name   string
		record []byte
	}{
		{"count 2^32-1", binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)},
		{"count 2^16 in 12 bytes", append(binary.LittleEndian.AppendUint32(nil, 1<<16), make([]byte, 8)...)},
		{"count one past the sizes", append(binary.LittleEndian.AppendUint32(nil, 3), valid[4:]...)},
		{"count 0", binary.LittleEndian.AppendUint32(nil, 0)},
	} {
		if _, err := decodeCommitRecord(c.record); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
