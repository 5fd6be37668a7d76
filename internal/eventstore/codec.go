package eventstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
)

// On-disk format. Each shard file is a wal.Log: the 8-byte magic
// "EVLOG\x00\x01\n", then wal.AppendFrame records, everything little-endian.
//
// A payload encodes one ids.Event:
//
//	i64 sec, u32 nsec            session start (Time)
//	u8 addrLen, addr bytes, u16 port   source endpoint
//	u8 addrLen, addr bytes, u16 port   destination endpoint
//	u32 SID
//	i64 sec, u32 nsec            rule publication time
//	u16 len, bytes               CVE
//	u16 len, bytes               Msg
//	u32 Bytes
//	u8 flags                     bit 0: Ambiguous
//
// Timestamps are (seconds, nanoseconds) rather than UnixNano so the full
// time.Time range survives — the study ruleset uses a year-2090 sentinel
// for never-published rules, and zero times must round-trip too.

var fileMagic = [8]byte{'E', 'V', 'L', 'O', 'G', 0x00, 0x01, '\n'}

// maxRecordLen is the record cap of the store's three logs (shards, commit
// journal, amendment log). Msg and CVE are u16-length strings, so valid
// payloads are far below it.
const maxRecordLen = 1 << 20

// appendEvent appends ev's payload encoding to buf.
func appendEvent(buf []byte, ev *ids.Event) []byte {
	buf = appendTime(buf, ev.Time)
	buf = appendEndpoint(buf, ev.Src)
	buf = appendEndpoint(buf, ev.Dst)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.SID))
	buf = appendTime(buf, ev.Published)
	buf = appendString16(buf, ev.CVE)
	buf = appendString16(buf, ev.Msg)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Bytes))
	var flags byte
	if ev.Ambiguous {
		flags |= 1
	}
	return append(buf, flags)
}

func appendTime(buf []byte, t time.Time) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Nanosecond()))
	return buf
}

func appendEndpoint(buf []byte, e packet.Endpoint) []byte {
	addr := e.Addr.AsSlice() // nil for the zero Addr
	buf = append(buf, byte(len(addr)))
	buf = append(buf, addr...)
	buf = binary.LittleEndian.AppendUint16(buf, e.Port)
	return buf
}

func appendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decodeEvent decodes one payload. It returns an error (never panics) on
// any malformed input, since payloads come off disk.
func decodeEvent(b []byte) (ids.Event, error) {
	d := decoder{b: b}
	ev := decodeEventFields(&d)
	if d.err != nil {
		return ids.Event{}, d.err
	}
	if len(d.b) != 0 {
		return ids.Event{}, fmt.Errorf("eventstore: %d stray bytes after event", len(d.b))
	}
	return ev, nil
}

// decodeEventFields consumes one event's fields from d, leaving any
// remaining bytes for composite payloads (the amendment log embeds an event
// before its own fields).
func decodeEventFields(d *decoder) ids.Event {
	var ev ids.Event
	ev.Time = d.time()
	ev.Src = d.endpoint()
	ev.Dst = d.endpoint()
	ev.SID = int(d.u32())
	ev.Published = d.time()
	ev.CVE = d.string16()
	ev.Msg = d.string16()
	ev.Bytes = int(d.u32())
	ev.Ambiguous = d.u8()&1 != 0
	return ev
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("eventstore: event payload truncated (%d of %d bytes)", len(d.b), n)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) time() time.Time {
	b := d.take(12)
	if b == nil {
		return time.Time{}
	}
	sec := int64(binary.LittleEndian.Uint64(b[0:8]))
	nsec := binary.LittleEndian.Uint32(b[8:12])
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *decoder) endpoint() packet.Endpoint {
	lb := d.take(1)
	if lb == nil {
		return packet.Endpoint{}
	}
	n := int(lb[0])
	var ep packet.Endpoint
	if n > 0 {
		ab := d.take(n)
		if ab == nil {
			return packet.Endpoint{}
		}
		addr, ok := netip.AddrFromSlice(ab)
		if !ok {
			d.err = fmt.Errorf("eventstore: bad address length %d", n)
			return packet.Endpoint{}
		}
		ep.Addr = addr
	}
	ep.Port = d.u16()
	return ep
}

func (d *decoder) string16() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// EncodeEvent appends ev's binary payload encoding to buf. The encoding is
// the store's on-disk record payload; the fleet wire protocol reuses it so a
// sensor's batches and the coordinator's log speak one format.
func EncodeEvent(buf []byte, ev *ids.Event) []byte { return appendEvent(buf, ev) }

// DecodeEvent decodes one EncodeEvent payload. It returns an error (never
// panics) on malformed input.
func DecodeEvent(payload []byte) (ids.Event, error) { return decodeEvent(payload) }
