// Package replica implements read replicas for the waybackd event store: a
// coordinator-side feed that ships its committed log as wal frames over a
// socket, and a replica that tails it into a store of its own and serves the
// full read API from there.
//
// The protocol leans on two properties of the eventstore. First, shard
// routing is a pure function of event content (eventstore shardFor), so a
// replica appending the coordinator's committed events — in per-shard order,
// under an equal shard count enforced at handshake — reproduces the
// coordinator's per-shard logs exactly; per-shard committed counts are
// therefore a complete replication watermark, and catch-up after any restart
// is "ship each shard's suffix past the replica's count". Second, the store
// recovers to its last commit record, so a replica that commits after each
// applied round resumes from a consistent cut: anything torn by a crash is
// truncated locally and simply re-shipped.
//
// Message flow (all messages are wal frames, as on the fleet wire):
//
//	replica                          coordinator feed
//	  | -- Hello{id, counts, amends} ----> |   resume point = replica's own store
//	  | <----------- Batch{events} ------- |   per-shard committed suffixes
//	  | <----------- Amends{records} ----- |   amendment log suffix
//	  | <----------- State{counts} ------- |   round barrier (also idle heartbeat)
//	  | -- Ack{counts, amends} ----------> |   replica committed this cut
//	  | <----------- Err{msg} ------------ |   fatal: divergence, shard mismatch
//
// An Err frame is terminal: the replica stops tailing and reports the error
// through Status (and thence /healthz) rather than guessing. The remedy for
// real divergence — a replica ahead of its coordinator — is wiping the
// replica's store and resyncing from empty.
package replica

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/wal"
)

// ProtocolVersion gates the handshake, independently of the fleet sensor
// protocol's version.
const ProtocolVersion = 1

// writeFrame frames under the fleet wire's limit: batch frames are
// fleet.EncodeEventBatch output, sized against it.
func writeFrame(w io.Writer, payload []byte) error {
	return wal.WriteFrame(w, payload, fleet.MaxFrame)
}

// Message types. Distinct from the fleet sensor message space except for
// batch frames, which are shared deliberately: event shipping reuses
// fleet.EncodeEventBatch (fleet.MsgBatch) including its compression.
const (
	msgRHello  = 32 // replica -> feed: version, id, per-shard counts, amend count
	msgRState  = 33 // feed -> replica: coordinator committed counts (round barrier / heartbeat)
	msgRAmends = 35 // feed -> replica: amendment log suffix
	msgRAck    = 36 // replica -> feed: counts now durable on the replica
	msgRErr    = 37 // feed -> replica: fatal, stop tailing
)

// progress is a replication watermark: per-shard event counts plus the
// amendment record count. Both sides exchange it — the replica as its resume
// point and ack, the feed as the round's target cut.
type progress struct {
	Counts []uint64
	Amends uint64
}

func (p *progress) events() uint64 {
	var n uint64
	for _, c := range p.Counts {
		n += c
	}
	return n
}

func appendProgress(buf []byte, p *progress) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Counts)))
	for _, c := range p.Counts {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return binary.LittleEndian.AppendUint64(buf, p.Amends)
}

// maxShards bounds the shard count a peer may declare; the count sizes an
// allocation and is untrusted input.
const maxShards = 4096

func (d *rdecoder) progress() progress {
	n := d.u32()
	if n > maxShards {
		d.fail(fmt.Errorf("replica: peer declares %d shards, limit %d", n, maxShards))
		return progress{}
	}
	p := progress{Counts: make([]uint64, 0, n)}
	for i := uint32(0); i < n; i++ {
		p.Counts = append(p.Counts, d.u64())
	}
	p.Amends = d.u64()
	return p
}

type rhello struct {
	Version uint8
	ID      string
	progress
}

func (h *rhello) encode() []byte {
	buf := []byte{msgRHello, h.Version}
	buf = appendString16(buf, h.ID)
	return appendProgress(buf, &h.progress)
}

func decodeRHello(b []byte) (rhello, error) {
	d := rdecoder{b: b}
	var h rhello
	if t := d.u8(); t != msgRHello {
		return h, fmt.Errorf("replica: expected Hello, got message type %d", t)
	}
	h.Version = d.u8()
	h.ID = d.string16()
	h.progress = d.progress()
	if err := d.finish("Hello"); err != nil {
		return h, err
	}
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("replica: protocol version %d, want %d", h.Version, ProtocolVersion)
	}
	if h.ID == "" {
		return h, fmt.Errorf("replica: empty replica id in Hello")
	}
	return h, nil
}

func encodeProgressMsg(typ byte, p *progress) []byte {
	return appendProgress([]byte{typ}, p)
}

func decodeProgressMsg(b []byte, typ byte, what string) (progress, error) {
	d := rdecoder{b: b}
	if t := d.u8(); t != typ {
		return progress{}, fmt.Errorf("replica: expected %s, got message type %d", what, t)
	}
	p := d.progress()
	return p, d.finish(what)
}

// encodeAmends frames an amendment-log suffix: each record is the same
// length-prefixed wire encoding amend.log uses on disk.
func encodeAmends(as []eventstore.Amendment) []byte {
	buf := []byte{msgRAmends}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(as)))
	var payload []byte
	for i := range as {
		payload = eventstore.EncodeAmendment(payload[:0], &as[i])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

func decodeAmends(b []byte) ([]eventstore.Amendment, error) {
	d := rdecoder{b: b}
	if t := d.u8(); t != msgRAmends {
		return nil, fmt.Errorf("replica: expected Amends, got message type %d", t)
	}
	count := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	// Each record costs at least its length prefix; a lying count must not
	// size a huge allocation.
	if uint64(count) > uint64(len(d.b))/4+1 {
		return nil, fmt.Errorf("replica: Amends declares %d records in %d bytes", count, len(d.b))
	}
	as := make([]eventstore.Amendment, 0, count)
	for i := uint32(0); i < count; i++ {
		n := d.u32()
		payload := d.take(int(n))
		if d.err != nil {
			return nil, d.err
		}
		a, err := eventstore.DecodeAmendment(payload)
		if err != nil {
			return nil, err
		}
		as = append(as, a)
	}
	return as, d.finish("Amends")
}

func encodeRErr(msg string) []byte {
	return appendString16([]byte{msgRErr}, msg)
}

func decodeRErr(b []byte) (string, error) {
	d := rdecoder{b: b}
	if t := d.u8(); t != msgRErr {
		return "", fmt.Errorf("replica: expected Err, got message type %d", t)
	}
	msg := d.string16()
	return msg, d.finish("Err")
}

// rdecoder mirrors the fleet wire decoder: bounds-checked takes, first
// failure sticks.
type rdecoder struct {
	b   []byte
	err error
}

func (d *rdecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *rdecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail(fmt.Errorf("replica: message truncated (%d of %d bytes)", len(d.b), n))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *rdecoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *rdecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *rdecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *rdecoder) string16() string {
	b := d.take(2)
	if b == nil {
		return ""
	}
	s := d.take(int(binary.LittleEndian.Uint16(b)))
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *rdecoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("replica: %d stray bytes after %s", len(d.b), what)
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
