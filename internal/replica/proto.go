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

	"repro/internal/eventstore"
	"repro/internal/wal"
)

// ProtocolVersion gates the handshake, independently of the fleet sensor
// protocol's version.
const ProtocolVersion = 1

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

func readProgress(c *wal.Cursor) progress {
	p := progress{Counts: make([]uint64, c.Count(8))}
	for i := range p.Counts {
		p.Counts[i] = c.U64()
	}
	p.Amends = c.U64()
	return p
}

type rhello struct {
	Version uint8
	ID      string
	progress
}

func (h *rhello) encode() []byte {
	buf := []byte{msgRHello, h.Version}
	buf = wal.AppendString16(buf, h.ID)
	return appendProgress(buf, &h.progress)
}

func decodeRHello(b []byte) (rhello, error) {
	c := wal.NewCursor(b)
	var h rhello
	if t := c.U8(); t != msgRHello {
		return h, fmt.Errorf("replica: expected Hello, got message type %d", t)
	}
	h.Version = c.U8()
	h.ID = c.String16()
	h.progress = readProgress(&c)
	if err := c.Finish("Hello"); err != nil {
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
	c := wal.NewCursor(b)
	if t := c.U8(); t != typ {
		return progress{}, fmt.Errorf("replica: expected %s, got message type %d", what, t)
	}
	p := readProgress(&c)
	return p, c.Finish(what)
}

// encodeAmends frames an amendment-log suffix: each record is the same
// length-prefixed wire encoding amend.log uses on disk.
func encodeAmends(as []eventstore.Amendment) []byte {
	buf := []byte{msgRAmends}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(as)))
	var payload []byte
	for i := range as {
		payload = eventstore.EncodeAmendment(payload[:0], &as[i])
		buf = wal.AppendBytes32(buf, payload)
	}
	return buf
}

func decodeAmends(b []byte) ([]eventstore.Amendment, error) {
	c := wal.NewCursor(b)
	if t := c.U8(); t != msgRAmends {
		return nil, fmt.Errorf("replica: expected Amends, got message type %d", t)
	}
	// Each record is a length prefix and an amendment, which embeds an event.
	as := make([]eventstore.Amendment, c.Count(4+eventstore.MinEventLen))
	for i := range as {
		a, err := eventstore.DecodeAmendment(c.Bytes32())
		if err != nil {
			return nil, err
		}
		as[i] = a
	}
	return as, c.Finish("Amends")
}

func encodeRErr(msg string) []byte {
	return wal.AppendString16([]byte{msgRErr}, msg)
}

func decodeRErr(b []byte) (string, error) {
	c := wal.NewCursor(b)
	if t := c.U8(); t != msgRErr {
		return "", fmt.Errorf("replica: expected Err, got message type %d", t)
	}
	msg := c.String16()
	return msg, c.Finish("Err")
}
