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
	// CodecSnappy uses the in-repo snappy block codec, ~3x on event batches
	// at a fraction of deflate's CPU. The Shipper always sends it; the
	// coordinator still decodes all three, for older sensors.
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
	buf = wal.AppendString16(buf, h.SensorID)
	buf = binary.LittleEndian.AppendUint32(buf, h.ShardIndex)
	buf = binary.LittleEndian.AppendUint32(buf, h.ShardCount)
	return append(buf, byte(h.Codec))
}

func decodeHello(b []byte) (hello, error) {
	c := wal.NewCursor(b)
	var h hello
	if t := c.U8(); t != msgHello {
		return h, fmt.Errorf("fleet: expected Hello, got message type %d", t)
	}
	h.Version = c.U8()
	h.SensorID = c.String16()
	h.ShardIndex = c.U32()
	h.ShardCount = c.U32()
	h.Codec = Codec(c.U8())
	if err := c.Finish("Hello"); err != nil {
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
	c := wal.NewCursor(b)
	var h helloAck
	if t := c.U8(); t != msgHelloAck {
		return h, fmt.Errorf("fleet: expected HelloAck, got message type %d", t)
	}
	h.Version = c.U8()
	h.Watermark = c.U64()
	if err := c.Finish("HelloAck"); err != nil {
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

// encodeBatch encodes and compresses a batch: the events as an event list
// (appendEvents), compressed with the given codec (encodeBatchList).
func encodeBatch(seq uint64, events []ids.Event, codec Codec) ([]byte, error) {
	list, _ := appendEvents(nil, events, math.MaxInt)
	return encodeBatchList(nil, seq, len(events), list, codec)
}

// encodeBatchList builds a batch message into dst's storage from an event
// list already encoded — count events laid out by appendEvents, as a spool
// record holds them — so the shipper sends the bytes it spooled without
// decoding or re-encoding an event.
func encodeBatchList(dst []byte, seq uint64, count int, list []byte, codec Codec) ([]byte, error) {
	buf := append(dst[:0], msgBatch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(codec))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(list)))
	switch codec {
	case CodecRaw:
		buf = append(buf, list...)
	case CodecSnappy:
		buf = snappyEncode(buf, list)
	case CodecDeflate:
		var cb bytes.Buffer
		zw, err := flate.NewWriter(&cb, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(list); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		buf = append(buf, cb.Bytes()...)
	default:
		return nil, fmt.Errorf("fleet: cannot encode with %v", codec)
	}
	return buf, nil
}

// decodeBatch decodes any codec's batch (the coordinator accepts them all,
// whatever the handshake advertised).
func decodeBatch(b []byte) (batchMsg, error) {
	m, _, err := decodeBatchScratch(b, nil, nil)
	return m, err
}

// decodeBatchScratch is decodeBatch with a reusable decompression buffer and
// shared names: scratch's storage holds the decompressed payload during
// decoding and the (possibly grown) buffer is returned for the next call;
// CVE and Msg strings come from names (readEvents). Safe to reuse scratch
// immediately — decoded events never alias it.
func decodeBatchScratch(b, scratch []byte, names map[string]string) (batchMsg, []byte, error) {
	c := wal.NewCursor(b)
	var m batchMsg
	if t := c.U8(); t != msgBatch {
		return m, scratch, fmt.Errorf("fleet: expected Batch, got message type %d", t)
	}
	m.Seq = c.U64()
	codec := Codec(c.U8())
	count := c.U32()
	rawLen := c.U32()
	body := c.Rest()
	if err := c.Err(); err != nil {
		return m, scratch, err
	}
	if rawLen > maxBatchRaw {
		return m, scratch, fmt.Errorf("fleet: batch declares %d raw bytes, limit %d", rawLen, maxBatchRaw)
	}
	// Every event entry costs at least minEventEntry bytes, so rawLen bytes
	// cannot hold more than rawLen/minEventEntry events. The count is
	// untrusted input and sizes an allocation — a lying header must not
	// reserve gigabytes before the body is even decompressed (found by
	// fuzzing).
	if uint64(count) > uint64(rawLen)/minEventEntry {
		return m, scratch, fmt.Errorf("fleet: batch declares %d events in %d raw bytes", count, rawLen)
	}
	var raw []byte
	switch codec {
	case CodecRaw:
		raw = body
	case CodecSnappy:
		var err error
		raw, err = snappyDecodeInto(scratch, body, int(rawLen))
		if err != nil {
			return m, scratch, err
		}
		scratch = raw
	case CodecDeflate:
		zr := flate.NewReader(bytes.NewReader(body))
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
	rc := wal.NewCursor(raw)
	m.Events = readEvents(&rc, int(count), names)
	return m, scratch, rc.Finish("batch events")
}

// appendEvents appends events to buf as an event list — each event a u32
// length and its EncodeEvent payload, the layout batches and spool records
// share — stopping before the first event that would grow buf past limit
// bytes. It returns the grown buffer and how many events it took.
func appendEvents(buf []byte, events []ids.Event, limit int) ([]byte, int) {
	for i := range events {
		start := len(buf)
		buf = eventstore.EncodeEvent(append(buf, 0, 0, 0, 0), &events[i])
		if len(buf) > limit {
			return buf[:start], i
		}
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	}
	return buf, len(events)
}

// minEventEntry is the smallest appendEvents entry: a length prefix and the
// smallest event.
const minEventEntry = 4 + eventstore.MinEventLen

// MaxNames bounds a long-lived decoder's names table (readEvents,
// DecodeEventBatchNames). A sensor controls the strings it ships, so a table
// kept across batches must not grow with them; the study's events carry a
// few hundred distinct CVE and rule-message strings, far below the bound.
const MaxNames = 4096

// readEvents reads n appendEvents entries, decoding each in place
// (eventstore.DecodeEventInto) with its CVE and Msg strings taken from names.
// A decoder that keeps names across batches shares each string among every
// event that carries it; the table is cleared before an event could take it
// past MaxNames. A nil names copies every string. n must already be bounded
// by the bytes behind it (Cursor.Count(minEventEntry), or the batch header's
// raw-length rule): it sizes the allocation.
func readEvents(c *wal.Cursor, n int, names map[string]string) []ids.Event {
	events := make([]ids.Event, n)
	for i := range events {
		if len(names) > MaxNames-2 { // an event adds at most two names
			clear(names)
		}
		if err := eventstore.DecodeEventInto(c.Bytes32(), &events[i], names); err != nil {
			c.Fail(err)
			return nil
		}
	}
	return events
}

func encodeAck(watermark uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{msgAck}, watermark)
}

func decodeAck(b []byte) (uint64, error) {
	c := wal.NewCursor(b)
	if t := c.U8(); t != msgAck {
		return 0, fmt.Errorf("fleet: expected Ack, got message type %d", t)
	}
	w := c.U64()
	return w, c.Finish("Ack")
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
	c := wal.NewCursor(b)
	var h heartbeat
	if t := c.U8(); t != msgHeartbeat {
		return h, fmt.Errorf("fleet: expected Heartbeat, got message type %d", t)
	}
	h.NextSeq = c.U64()
	h.Spooled = c.U32()
	h.IngestLag = int64(c.U64())
	return h, c.Finish("Heartbeat")
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
// Every event's strings are its own copies.
func DecodeEventBatch(b []byte) (seq uint64, events []ids.Event, err error) {
	return DecodeEventBatchNames(b, nil)
}

// DecodeEventBatchNames is DecodeEventBatch taking CVE and Msg strings from
// names, which a receiver keeps across batches so that each distinct string
// is held once however many events carry it. The table stays at or below
// MaxNames: it is cleared before an event could take it past that.
func DecodeEventBatchNames(b []byte, names map[string]string) (seq uint64, events []ids.Event, err error) {
	m, _, err := decodeBatchScratch(b, nil, names)
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
