package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
)

// goldenEvents is testEvents plus the field encodings that set lacks: an
// ambiguous flag, an IPv6 endpoint, a zero endpoint and a zero time.
func goldenEvents(tb testing.TB) []ids.Event {
	evs := testEvents(tb, 40)
	evs[3].Ambiguous = true
	evs[5].Src = packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::7"), Port: 8443}
	evs[7].Dst = packet.Endpoint{}
	evs[9].Published = time.Time{}
	return evs
}

// TestWireGolden pins the bytes of every fleet wire message to SHA-256
// values recorded from the hand-written encoders that preceded the shared
// field codec. A mismatch means sensors and coordinators built from
// different commits no longer understand each other.
func TestWireGolden(t *testing.T) {
	evs := goldenEvents(t)
	batch := func(codec Codec) []byte {
		b, err := encodeBatch(9, evs, codec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		msg  []byte
		want string
	}{
		{"Hello", (&hello{Version: ProtocolVersion, SensorID: "sensor-α/2", ShardIndex: 2, ShardCount: 3, Codec: CodecSnappy}).encode(),
			"98062e8c37499bf7e350403b964378d64d91b6c1cb10ad4557440fdc16d29630"},
		{"HelloAck", (&helloAck{Version: ProtocolVersion, Watermark: 1<<42 + 7}).encode(),
			"0c913030a89d6f45a3f5cd11eb85f7b23b8af6c310efd1ecd8e1e24cbda8d773"},
		{"Batch/raw", batch(CodecRaw),
			"d7d3ba26379066874c81f73e4fd510a07584bb7f0b71b376fe86b51aa60e63a7"},
		{"Batch/snappy", batch(CodecSnappy),
			"5c0ebc777ecf4c16a8207b4150ff7ca82623e781b441118800c67b901aa5d44e"},
		{"Ack", encodeAck(12345),
			"5ba8bc2a16912cb9ff354eb85daee5662213e6256665d92a72aaa06f5c753b50"},
		{"Heartbeat", (&heartbeat{NextSeq: 99, Spooled: 7, IngestLag: -1}).encode(),
			"eb9bd8a6f71df58b80ca4e11a3570935a06f2082fbbc73bd2614c3863a801b24"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.msg)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: wire bytes hash to %s, want %s — the fleet wire format changed. "+
				"If that is deliberate, bump ProtocolVersion and re-record this hash.", c.name, got, c.want)
		}
	}
}
