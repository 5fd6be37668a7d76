package fleet

import (
	"bytes"
	"net"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/wal"
)

func TestHelloRoundtrip(t *testing.T) {
	in := hello{Version: ProtocolVersion, SensorID: "sensor-α/2", ShardIndex: 2, ShardCount: 3, Codec: CodecDeflate}
	got, err := decodeHello(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("got %+v want %+v", got, in)
	}

	bad := []hello{
		{Version: ProtocolVersion + 1, SensorID: "s", ShardCount: 1},            // version skew
		{Version: ProtocolVersion, SensorID: "", ShardCount: 1},                 // anonymous
		{Version: ProtocolVersion, SensorID: "s", ShardIndex: 3, ShardCount: 3}, // shard out of range
		{Version: ProtocolVersion, SensorID: "s", ShardCount: 0},                // zero shards
	}
	for i, h := range bad {
		if _, err := decodeHello(h.encode()); err == nil {
			t.Errorf("case %d: bad hello %+v accepted", i, h)
		}
	}
	if _, err := decodeHello(append(in.encode(), 0x00)); err == nil {
		t.Error("stray trailing byte accepted")
	}
	if _, err := decodeHello(in.encode()[:5]); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestHelloAckAndAckRoundtrip(t *testing.T) {
	ha := helloAck{Version: ProtocolVersion, Watermark: 1<<42 + 7}
	got, err := decodeHelloAck(ha.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ha {
		t.Fatalf("got %+v want %+v", got, ha)
	}
	if _, err := decodeHelloAck((&helloAck{Version: 9}).encode()); err == nil {
		t.Error("version skew accepted")
	}

	w, err := decodeAck(encodeAck(12345))
	if err != nil {
		t.Fatal(err)
	}
	if w != 12345 {
		t.Fatalf("ack watermark %d", w)
	}
	// Wrong message type in the right shape.
	if _, err := decodeAck((&helloAck{Version: ProtocolVersion}).encode()); err == nil {
		t.Error("HelloAck decoded as Ack")
	}
}

func TestHeartbeatRoundtrip(t *testing.T) {
	in := heartbeat{NextSeq: 99, Spooled: 7, IngestLag: -1}
	got, err := decodeHeartbeat(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestBatchRoundtripAllCodecs(t *testing.T) {
	events := testEvents(t, 123)
	for _, codec := range []Codec{CodecRaw, CodecDeflate, CodecSnappy} {
		t.Run(codec.String(), func(t *testing.T) {
			wire, err := encodeBatch(42, events, codec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeBatch(wire)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != 42 || len(got.Events) != len(events) {
				t.Fatalf("seq %d, %d events", got.Seq, len(got.Events))
			}
			for i := range events {
				if !eventsEqual(got.Events[i], events[i]) {
					t.Fatalf("event %d:\n got %+v\nwant %+v", i, got.Events[i], events[i])
				}
			}
			if codec != CodecRaw {
				raw, _ := encodeBatch(42, events, CodecRaw)
				if len(wire) >= len(raw) {
					t.Errorf("%v batch no smaller than raw: %d vs %d", codec, len(wire), len(raw))
				}
			}
		})
	}

	// Empty batch (heartbeat-like) still roundtrips.
	wire, err := encodeBatch(1, nil, CodecSnappy)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeBatch(wire); err != nil || got.Seq != 1 || len(got.Events) != 0 {
		t.Fatalf("empty batch: %v %+v", err, got)
	}
}

func TestBatchDecodeRejectsCorrupt(t *testing.T) {
	events := testEvents(t, 20)
	wire, err := encodeBatch(7, events, CodecSnappy)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one compressed byte: either snappy or the event codec must object.
	mut := append([]byte(nil), wire...)
	mut[len(mut)-3] ^= 0xff
	if got, err := decodeBatch(mut); err == nil {
		for i := range got.Events {
			if i < len(events) && !eventsEqual(got.Events[i], events[i]) {
				return // corruption surfaced as a decode difference — acceptable only if erred; fail below
			}
		}
		t.Error("corrupted batch decoded cleanly to identical events")
	}
	// Over-declared raw length.
	huge, _ := encodeBatch(7, events, CodecRaw)
	copy(huge[14:18], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := decodeBatch(huge); err == nil {
		t.Error("4GB raw-length declaration accepted")
	}
	// Count mismatch.
	lie, _ := encodeBatch(7, events, CodecRaw)
	lie[10]++ // count field (offset: 1 type + 8 seq + 1 codec)
	if _, err := decodeBatch(lie); err == nil {
		t.Error("event count lie accepted")
	}
	// Unknown codec.
	unk, _ := encodeBatch(7, events, CodecRaw)
	unk[9] = 99
	if _, err := decodeBatch(unk); err == nil {
		t.Error("unknown codec accepted")
	}
}

// TestFrameOverTCP exercises the framing against a real socket, including
// CRC rejection of a corrupted frame.
func TestFrameOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := bytes.Repeat([]byte("framed "), 100)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		writeFrame(conn, payload)
		// Second frame: valid header, one payload byte flipped -> CRC mismatch.
		frame := wal.AppendFrame(nil, payload)
		frame[8] ^= 0xff
		conn.Write(frame)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame changed in flight")
	}
	if _, err := readFrame(conn, got); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt frame gave %v, want CRC error", err)
	}
}

func TestShardOfPartitions(t *testing.T) {
	const n = 3
	counts := make([]int, n)
	for i := 0; i < 1000; i++ {
		addr := netip.AddrFrom4([4]byte{18, 204, byte(i >> 8), byte(i)})
		s := ShardOf(addr, n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if again := ShardOf(addr, n); again != s {
			t.Fatal("ShardOf not deterministic")
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 200 {
			t.Errorf("shard %d got only %d/1000 addresses", s, c)
		}
	}
	if ShardOf(netip.AddrFrom4([4]byte{1, 2, 3, 4}), 1) != 0 ||
		ShardOf(netip.AddrFrom4([4]byte{1, 2, 3, 4}), 0) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
}
