package fleet

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// recordCodec is one decoder in this package and the encoder it mirrors.
type recordCodec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}

type markRecord struct {
	id  string
	seq uint64
}

var recordCodecs = []recordCodec{
	{"Hello",
		func(b []byte) (any, error) { return decodeHello(b) },
		func(v any) []byte { h := v.(hello); return h.encode() }},
	{"HelloAck",
		func(b []byte) (any, error) { return decodeHelloAck(b) },
		func(v any) []byte { h := v.(helloAck); return h.encode() }},
	{"Batch",
		func(b []byte) (any, error) { return decodeBatch(b) },
		func(v any) []byte {
			m := v.(batchMsg)
			b, err := encodeBatch(m.Seq, m.Events, CodecRaw)
			if err != nil {
				panic(err)
			}
			return b
		}},
	{"Ack",
		func(b []byte) (any, error) { return decodeAck(b) },
		func(v any) []byte { return encodeAck(v.(uint64)) }},
	{"Heartbeat",
		func(b []byte) (any, error) { return decodeHeartbeat(b) },
		func(v any) []byte { h := v.(heartbeat); return h.encode() }},
	{"spool batch",
		func(b []byte) (any, error) { return decodeSpoolBatch(b, nil) },
		func(v any) []byte {
			sb := v.(spoolBatch)
			b, rest, err := encodeSpoolBatch(nil, sb.seq, sb.events())
			if err != nil || len(rest) != 0 {
				panic("a decoded spool batch does not re-encode as one record")
			}
			return b
		}},
	{"watermark",
		func(b []byte) (any, error) {
			id, seq, err := decodeMark(b)
			return markRecord{id, seq}, err
		},
		func(v any) []byte { m := v.(markRecord); return encodeMark(m.id, m.seq) }},
}

func fuzzRecordsSeeds(tb testing.TB) [][]byte {
	evs := goldenEvents(tb)[:6]
	spooled, _, err := encodeSpoolBatch(nil, 4, evs)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		(&hello{Version: ProtocolVersion, SensorID: "s-1", ShardIndex: 1, ShardCount: 2, Codec: CodecSnappy}).encode(),
		(&helloAck{Version: ProtocolVersion, Watermark: 77}).encode(),
		encodeAck(9),
		(&heartbeat{NextSeq: 3, Spooled: 1, IngestLag: 12}).encode(),
		spooled,
		encodeMark("sensor-0", 41),
	}
	for _, codec := range []Codec{CodecRaw, CodecSnappy} {
		b, err := encodeBatch(5, evs, codec)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, s := range seeds {
		seeds = append(seeds, s[:len(s)-1])
	}
	return append(seeds, []byte{}, lyingSpoolBatch(0xFFFFFFFF))
}

// FuzzRecords runs every record decoder in this package — the fleet wire
// messages, spool records and watermark records — over the input. None may
// panic, and whatever one accepts must come back unchanged from its encoder
// and the same decoder.
func FuzzRecords(f *testing.F) {
	for _, seed := range fuzzRecordsSeeds(f) {
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

// lyingSpoolBatch is a spool record header declaring count events with none
// behind it.
func lyingSpoolBatch(count uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, 1), count)
}

// allocatedBy reports the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingCountsRejected: an event count is untrusted input that sizes an
// allocation. A count the bytes behind it cannot hold must be an error that
// costs no more memory than the message itself — not an out-of-memory
// crash, which recover cannot catch and which a spooled record would repeat
// at every sensor restart.
func TestLyingCountsRejected(t *testing.T) {
	oneEvent, _, err := encodeSpoolBatch(nil, 1, testEvents(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(oneEvent[8:12], 2)
	// A batch whose decompressed body is 4 MiB of zeros, declaring as many
	// events as 4-byte length prefixes would fit.
	const rawLen = 4 << 20
	zeros := []byte{msgBatch}
	zeros = binary.LittleEndian.AppendUint64(zeros, 1)
	zeros = append(zeros, byte(CodecSnappy))
	zeros = binary.LittleEndian.AppendUint32(zeros, rawLen/4)
	zeros = binary.LittleEndian.AppendUint32(zeros, rawLen)
	zeros = snappyEncode(zeros, make([]byte, rawLen))

	cases := []struct {
		name   string
		decode func() error
	}{
		{"spool count 2^32-1, no events", func() error { _, err := decodeSpoolBatch(lyingSpoolBatch(0xFFFFFFFF), nil); return err }},
		{"spool count 2, one event", func() error { _, err := decodeSpoolBatch(oneEvent, nil); return err }},
		{"batch count 2^29 in 8 raw bytes", func() error {
			b := []byte{msgBatch}
			b = binary.LittleEndian.AppendUint64(b, 1)
			b = append(b, byte(CodecRaw))
			b = binary.LittleEndian.AppendUint32(b, 1<<29)
			b = binary.LittleEndian.AppendUint32(b, 8)
			_, err := decodeBatch(append(b, make([]byte, 8)...))
			return err
		}},
		{"batch count rawLen/4 over zeros", func() error { _, err := decodeBatch(zeros); return err }},
	}
	for _, c := range cases {
		var err error
		if n := allocatedBy(func() { err = c.decode() }); n > 2*rawLen {
			t.Errorf("%s: decoding allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
