// Package fleet is the distributed-capture subsystem: the wire protocol,
// sensor-side shipper, and coordinator-side listener that let many capture
// nodes (each running packet capture, TCP reassembly, and IDS matching over
// its shard of the telescope address space) feed one analysis coordinator
// with exactly-once semantics.
//
// The wire protocol is length-prefixed, CRC-framed messages over one TCP
// connection per sensor — internal/wal's record framing, the one every log
// uses on disk, so a frame torn by a dying connection is detected the same
// way a torn append is. Event batches carry per-sensor monotonic
// sequence numbers; the coordinator persists a per-sensor high watermark
// alongside the eventstore and drops any redelivered batch at or below it,
// which converts the shipper's at-least-once retransmission into
// exactly-once ingest. Batches are compressed (snappy by default, deflate or
// raw negotiable per batch) since encoded events are highly repetitive.
//
// Message flow:
//
//	sensor                         coordinator
//	  | -- Hello{id, shard} ------------> |   handshake
//	  | <------ HelloAck{watermark} ----- |   resume point
//	  | -- Batch{seq=w+1, events} ------> |   bounded in-flight window
//	  | -- Batch{seq=w+2, events} ------> |
//	  | <------------- Ack{w+2} --------- |   cumulative
//	  | -- Heartbeat{lag} --------------> |   liveness while idle
//
// On reconnect the handshake's watermark tells the sensor where to resume;
// everything still spooled above it is resent in order.
//
// The watermark dedups wire-level redelivery: the same spooled batch sent
// twice. It cannot recognize events a sensor re-captured after a hard crash
// (they arrive under fresh sequence numbers), so end-to-end exactly-once is
// the joint property of this protocol and the sensor's ingest checkpoint,
// which bounds re-capture to the window since the last idle flush.
//
// # Group commit
//
// The coordinator does not fsync per batch. Appends from all sensors land in
// the sharded event log concurrently; a single committer goroutine coalesces
// every batch pending at that moment into one durability point — one fsync
// round of only-dirty shards plus one commit record that carries every
// advanced sensor watermark — and only then releases the queued acks. The
// exactly-once boundary is unchanged: an ack still means "this batch and the
// watermark that dedups its redelivery are both on disk". What coalescing
// changes is the failure granularity — a crash between append and group
// commit discards the whole unacked group (the eventstore truncates back to
// its last commit record on restart) and every affected sensor redelivers
// from its durable watermark. Nothing acked is ever lost; nothing unacked is
// ever applied twice. Ack latency is bounded by the commit interval
// (ListenerConfig.CommitInterval, default adaptive: each group is whatever
// arrived during the previous group's fsync).
package fleet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/wal"
)

// ProtocolVersion is the handshake version; a mismatch fails the handshake
// loudly rather than guessing at frame semantics.
const ProtocolVersion = 1

// Codec identifies a batch payload compression.
type Codec uint8

const (
	// CodecRaw ships encoded events uncompressed.
	CodecRaw Codec = iota
	// CodecDeflate uses DEFLATE (compress/flate) at BestSpeed.
	CodecDeflate
	// CodecSnappy uses the in-repo snappy block codec — the default: ~3x on
	// event batches at a fraction of deflate's CPU.
	CodecSnappy
)

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecDeflate:
		return "deflate"
	case CodecSnappy:
		return "snappy"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec maps a flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw", "none":
		return CodecRaw, nil
	case "deflate":
		return CodecDeflate, nil
	case "snappy", "":
		return CodecSnappy, nil
	}
	return 0, fmt.Errorf("fleet: unknown codec %q (raw, deflate, snappy)", s)
}

// Message types (first payload byte of every frame).
const (
	msgHello     = 1 // sensor -> coordinator: id, shard, preferred codec
	msgHelloAck  = 2 // coordinator -> sensor: high watermark to resume past
	msgBatch     = 3 // sensor -> coordinator: seq + compressed events
	msgAck       = 4 // coordinator -> sensor: cumulative applied watermark
	msgHeartbeat = 5 // sensor -> coordinator: liveness + local lag
)

const (
	// MaxFrame bounds one wire frame; a length prefix beyond it means a
	// corrupt or hostile peer and fails the connection. Exported for the
	// replica feed, which ships EncodeEventBatch frames over its own wire.
	MaxFrame = 16 << 20
	// maxBatchRaw bounds the decompressed size of one batch.
	maxBatchRaw = 64 << 20
)

// writeFrame writes one payload as a wal frame under the wire's frame limit.
func writeFrame(w io.Writer, payload []byte) error {
	return wal.WriteFrame(w, payload, MaxFrame)
}

// writeFrameReusing is writeFrame assembling the wire bytes in *scratch, for
// hot paths (batch sends, acks) that would otherwise allocate and copy a
// frame per message.
func writeFrameReusing(w io.Writer, payload []byte, scratch *[]byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("fleet: frame of %d bytes exceeds limit", len(payload))
	}
	*scratch = wal.AppendFrame((*scratch)[:0], payload)
	_, err := w.Write(*scratch)
	return err
}

// readFrame reads one framed payload, verifying length bound and CRC.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	return wal.ReadFrame(r, buf, MaxFrame)
}

// hello is the sensor's handshake.
type hello struct {
	Version    uint8
	SensorID   string
	ShardIndex uint32
	ShardCount uint32
	Codec      Codec
}

func (h *hello) encode() []byte {
	buf := []byte{msgHello, h.Version}
	buf = appendString16(buf, h.SensorID)
	buf = binary.LittleEndian.AppendUint32(buf, h.ShardIndex)
	buf = binary.LittleEndian.AppendUint32(buf, h.ShardCount)
	return append(buf, byte(h.Codec))
}

func decodeHello(b []byte) (hello, error) {
	d := wireDecoder{b: b}
	var h hello
	if t := d.u8(); t != msgHello {
		return h, fmt.Errorf("fleet: expected Hello, got message type %d", t)
	}
	h.Version = d.u8()
	h.SensorID = d.string16()
	h.ShardIndex = d.u32()
	h.ShardCount = d.u32()
	h.Codec = Codec(d.u8())
	if err := d.finish("Hello"); err != nil {
		return h, err
	}
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("fleet: protocol version %d, want %d", h.Version, ProtocolVersion)
	}
	if h.SensorID == "" {
		return h, fmt.Errorf("fleet: empty sensor id in Hello")
	}
	if h.ShardCount == 0 || h.ShardIndex >= h.ShardCount {
		return h, fmt.Errorf("fleet: bad shard %d/%d in Hello", h.ShardIndex, h.ShardCount)
	}
	return h, nil
}

// helloAck answers a hello with the resume point.
type helloAck struct {
	Version   uint8
	Watermark uint64
}

func (h *helloAck) encode() []byte {
	buf := []byte{msgHelloAck, h.Version}
	return binary.LittleEndian.AppendUint64(buf, h.Watermark)
}

func decodeHelloAck(b []byte) (helloAck, error) {
	d := wireDecoder{b: b}
	var h helloAck
	if t := d.u8(); t != msgHelloAck {
		return h, fmt.Errorf("fleet: expected HelloAck, got message type %d", t)
	}
	h.Version = d.u8()
	h.Watermark = d.u64()
	if err := d.finish("HelloAck"); err != nil {
		return h, err
	}
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("fleet: coordinator speaks version %d, want %d", h.Version, ProtocolVersion)
	}
	return h, nil
}

// batchMsg is one sequenced batch of events.
type batchMsg struct {
	Seq    uint64
	Events []ids.Event
}

// encodeBatch encodes and compresses a batch. Events are concatenated as
// framed EncodeEvent payloads (u32 length | bytes), then the concatenation is
// compressed with the given codec.
func encodeBatch(seq uint64, events []ids.Event, codec Codec) ([]byte, error) {
	buf, _, err := encodeBatchScratch(nil, nil, seq, events, codec)
	return buf, err
}

// encodeBatchScratch is encodeBatch building into dst's storage and using
// raw's storage for the uncompressed concatenation, so the shipper's send
// loop reuses two buffers instead of allocating both per batch. Returns the
// encoded message and the (possibly grown) raw scratch.
func encodeBatchScratch(dst, raw []byte, seq uint64, events []ids.Event, codec Codec) ([]byte, []byte, error) {
	raw = raw[:0]
	var tmp []byte
	for i := range events {
		tmp = eventstore.EncodeEvent(tmp[:0], &events[i])
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(tmp)))
		raw = append(raw, tmp...)
	}
	buf := append(dst[:0], msgBatch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(codec))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(raw)))
	switch codec {
	case CodecRaw:
		buf = append(buf, raw...)
	case CodecSnappy:
		buf = snappyEncode(buf, raw)
	case CodecDeflate:
		var cb bytes.Buffer
		zw, err := flate.NewWriter(&cb, flate.BestSpeed)
		if err != nil {
			return nil, raw, err
		}
		if _, err := zw.Write(raw); err != nil {
			return nil, raw, err
		}
		if err := zw.Close(); err != nil {
			return nil, raw, err
		}
		buf = append(buf, cb.Bytes()...)
	default:
		return nil, raw, fmt.Errorf("fleet: cannot encode with %v", codec)
	}
	return buf, raw, nil
}

// decodeBatch decodes any codec's batch (the coordinator accepts them all,
// whatever the handshake advertised).
func decodeBatch(b []byte) (batchMsg, error) {
	m, _, err := decodeBatchScratch(b, nil)
	return m, err
}

// decodeBatchScratch is decodeBatch with a reusable decompression buffer:
// scratch's storage holds the decompressed payload during decoding and the
// (possibly grown) buffer is returned for the next call. Safe to reuse
// immediately — decoded events never alias it (DecodeEvent copies).
func decodeBatchScratch(b, scratch []byte) (batchMsg, []byte, error) {
	d := wireDecoder{b: b}
	var m batchMsg
	if t := d.u8(); t != msgBatch {
		return m, scratch, fmt.Errorf("fleet: expected Batch, got message type %d", t)
	}
	m.Seq = d.u64()
	codec := Codec(d.u8())
	count := d.u32()
	rawLen := d.u32()
	if d.err != nil {
		return m, scratch, d.err
	}
	if rawLen > maxBatchRaw {
		return m, scratch, fmt.Errorf("fleet: batch declares %d raw bytes, limit %d", rawLen, maxBatchRaw)
	}
	// Every event frame costs at least its 4-byte length prefix, so rawLen
	// bytes cannot hold more than rawLen/4 events. The count is untrusted
	// input and sizes an allocation — a lying header must not reserve
	// gigabytes before the body is even decompressed (found by fuzzing).
	if uint64(count) > uint64(rawLen)/4 {
		return m, scratch, fmt.Errorf("fleet: batch declares %d events in %d raw bytes", count, rawLen)
	}
	var raw []byte
	switch codec {
	case CodecRaw:
		raw = d.b
	case CodecSnappy:
		var err error
		raw, err = snappyDecodeInto(scratch, d.b, int(rawLen))
		if err != nil {
			return m, scratch, err
		}
		scratch = raw
	case CodecDeflate:
		zr := flate.NewReader(bytes.NewReader(d.b))
		var err error
		raw, err = io.ReadAll(io.LimitReader(zr, int64(rawLen)+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return m, scratch, fmt.Errorf("fleet: inflating batch: %w", err)
		}
	default:
		return m, scratch, fmt.Errorf("fleet: batch uses unknown %v", codec)
	}
	if len(raw) != int(rawLen) {
		return m, scratch, fmt.Errorf("fleet: batch decompressed to %d bytes, declared %d", len(raw), rawLen)
	}
	m.Events = make([]ids.Event, 0, count)
	for len(raw) > 0 {
		if len(raw) < 4 {
			return m, scratch, fmt.Errorf("fleet: truncated event frame in batch")
		}
		n := binary.LittleEndian.Uint32(raw)
		raw = raw[4:]
		if uint32(len(raw)) < n {
			return m, scratch, fmt.Errorf("fleet: event frame of %d bytes overruns batch", n)
		}
		ev, err := eventstore.DecodeEvent(raw[:n])
		if err != nil {
			return m, scratch, err
		}
		m.Events = append(m.Events, ev)
		raw = raw[n:]
	}
	if uint32(len(m.Events)) != count {
		return m, scratch, fmt.Errorf("fleet: batch holds %d events, declared %d", len(m.Events), count)
	}
	return m, scratch, nil
}

func encodeAck(watermark uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{msgAck}, watermark)
}

func decodeAck(b []byte) (uint64, error) {
	d := wireDecoder{b: b}
	if t := d.u8(); t != msgAck {
		return 0, fmt.Errorf("fleet: expected Ack, got message type %d", t)
	}
	w := d.u64()
	return w, d.finish("Ack")
}

// heartbeat carries sensor-side liveness and lag: the next sequence it will
// assign and how much work is still local (spooled batches, ingest backlog).
type heartbeat struct {
	NextSeq   uint64
	Spooled   uint32
	IngestLag int64
}

func (h *heartbeat) encode() []byte {
	buf := []byte{msgHeartbeat}
	buf = binary.LittleEndian.AppendUint64(buf, h.NextSeq)
	buf = binary.LittleEndian.AppendUint32(buf, h.Spooled)
	return binary.LittleEndian.AppendUint64(buf, uint64(h.IngestLag))
}

func decodeHeartbeat(b []byte) (heartbeat, error) {
	d := wireDecoder{b: b}
	var h heartbeat
	if t := d.u8(); t != msgHeartbeat {
		return h, fmt.Errorf("fleet: expected Heartbeat, got message type %d", t)
	}
	h.NextSeq = d.u64()
	h.Spooled = d.u32()
	h.IngestLag = int64(d.u64())
	return h, d.finish("Heartbeat")
}

// wireDecoder mirrors the eventstore's defensive decoding: every take is
// bounds-checked, the first failure sticks.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("fleet: message truncated (%d of %d bytes)", len(d.b), n)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDecoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *wireDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *wireDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *wireDecoder) string16() string {
	b := d.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	s := d.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *wireDecoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("fleet: %d stray bytes after %s", len(d.b), what)
	}
	return nil
}

func appendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// The replica protocol (internal/replica) reuses this package's batch
// encoding for log shipping: same compression, different message vocabulary
// on a different listener. The exported wrappers below are its surface.

// MsgBatch is the wire type tag (first payload byte) of an event batch frame.
const MsgBatch = msgBatch

// EncodeEventBatch encodes and compresses one sequenced event batch frame
// payload.
func EncodeEventBatch(seq uint64, events []ids.Event, codec Codec) ([]byte, error) {
	return encodeBatch(seq, events, codec)
}

// DecodeEventBatch decodes an EncodeEventBatch payload, whatever its codec.
func DecodeEventBatch(b []byte) (seq uint64, events []ids.Event, err error) {
	m, err := decodeBatch(b)
	return m.Seq, m.Events, err
}

// ShardOf maps a telescope address onto one of n shards. Both the shard-aware
// replayer (waybackfeed -shard) and sensors use it, so a session's events are
// owned by exactly one sensor: the one whose shard its destination hashes to.
func ShardOf(addr netip.Addr, n int) int {
	if n <= 1 {
		return 0
	}
	// An address hash whose value routes sensors — not record framing, so it
	// does not come from wal.
	h := crc32.ChecksumIEEE(addr.AsSlice())
	return int(h % uint32(n))
}
