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

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from the
// seed lists the fuzz targets add. Run with REGEN_FUZZ_CORPUS=1 after
// changing them.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzRecords", fuzzRecordsSeeds())
	fuzzcorpus.Write(t, "FuzzDecodeEventInto", fuzzDecodeEventIntoSeeds())
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

func fuzzDecodeEventIntoSeeds() [][]byte {
	v6 := testEvent(2)
	v6.Src = packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::1"), Port: 1}
	v6.Ambiguous = true
	a := amendFor(testEvent(4), 990001, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), "2020-9999", 3)
	var seeds [][]byte
	// Events 0-3 share their message and 0 and 9 their CVE, so a names map
	// reused across the seeds is hit as well as filled.
	for _, i := range []int{0, 1, 3, 4, 9} {
		ev := testEvent(i)
		seeds = append(seeds, EncodeEvent(nil, &ev))
	}
	seeds = append(seeds, EncodeEvent(nil, &ids.Event{}), EncodeEvent(nil, &v6), EncodeAmendment(nil, &a))
	full := seeds[0]
	return append(seeds, full[:len(full)-1], append(full[:len(full):len(full)], 0), []byte{})
}

// FuzzDecodeEventInto checks the in-place decoder against the copying one:
// for any payload, DecodeEventInto with a names map reused across inputs
// must agree with DecodeEvent on the error and the event. Its strings must
// not alias the payload — a segment scan decodes out of a pooled buffer that
// the next read overwrites — so the payload is overwritten after each decode
// and the event checked again.
func FuzzDecodeEventInto(f *testing.F) {
	for _, seed := range fuzzDecodeEventIntoSeeds() {
		f.Add(seed)
	}
	names := make(map[string]string)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeEvent(data)
		buf := append([]byte(nil), data...)
		var got ids.Event
		err := DecodeEventInto(buf, &got, names)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeEventInto error %v, DecodeEvent error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeEventInto decoded\n%+v\nDecodeEvent decoded\n%+v", got, want)
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
		if got.CVE != want.CVE || got.Msg != want.Msg {
			t.Fatalf("overwriting the payload changed the decoded strings to %q, %q (want %q, %q)",
				got.CVE, got.Msg, want.CVE, want.Msg)
		}
		if s, ok := names[want.CVE]; !ok || s != want.CVE {
			t.Fatalf("names holds %q for CVE %q after the payload was overwritten", s, want.CVE)
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
