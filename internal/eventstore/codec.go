package eventstore

import (
	"encoding/binary"

	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/wal"
)

// On-disk format. Each shard file is a wal.Log: the 8-byte magic
// "EVLOG\x00\x01\n", then wal.AppendFrame records whose payloads use the
// wal field codec.
//
// A payload encodes one ids.Event:
//
//	time                         session start (Time)
//	addr, u16 port               source endpoint
//	addr, u16 port               destination endpoint
//	u32 SID
//	time                         rule publication time
//	string16                     CVE
//	string16                     Msg
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

// MinEventLen is the length of the smallest EncodeEvent payload: zero
// addresses and empty strings. Decoders of event lists bound a declared
// count with it, so a lying count cannot size an allocation beyond what the
// bytes behind it could hold.
const MinEventLen = 43

// EncodeEvent appends ev's binary payload encoding to buf. The encoding is
// the store's on-disk record payload; the fleet wire protocol reuses it so a
// sensor's batches and the coordinator's log speak one format.
func EncodeEvent(buf []byte, ev *ids.Event) []byte {
	buf = wal.AppendTime(buf, ev.Time)
	buf = AppendEndpoint(buf, ev.Src)
	buf = AppendEndpoint(buf, ev.Dst)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.SID))
	buf = wal.AppendTime(buf, ev.Published)
	buf = wal.AppendString16(buf, ev.CVE)
	buf = wal.AppendString16(buf, ev.Msg)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Bytes))
	var flags byte
	if ev.Ambiguous {
		flags |= 1
	}
	return append(buf, flags)
}

// DecodeEvent decodes one EncodeEvent payload into a fresh Event whose
// strings are its own copies. It returns an error (never panics) on
// malformed input, since payloads come off disk and the wire.
func DecodeEvent(payload []byte) (ids.Event, error) {
	var ev ids.Event
	err := DecodeEventInto(payload, &ev, nil)
	return ev, err
}

// DecodeEventInto decodes one EncodeEvent payload into *ev, overwriting
// every field, so a scan can decode each of its events into one Event. CVE
// and Msg come from names, keyed by their bytes: a string already there is
// reused without allocating, and a new one is copied in once. A nil names
// copies every string, as DecodeEvent does. Either way no field aliases
// payload, which the caller may overwrite as soon as this returns. On error
// *ev is zeroed.
func DecodeEventInto(payload []byte, ev *ids.Event, names map[string]string) error {
	c := wal.NewCursor(payload)
	readEvent(&c, ev, names)
	if err := c.Finish("event"); err != nil {
		*ev = ids.Event{}
		return err
	}
	return nil
}

// readEvent is the one event field reader: it fills *ev from c, taking CVE
// and Msg through names (see DecodeEventInto), and leaves any remaining bytes
// for composite payloads (the amendment record embeds an event before its
// own fields).
func readEvent(c *wal.Cursor, ev *ids.Event, names map[string]string) {
	ev.Time = c.Time()
	ev.Src = ReadEndpoint(c)
	ev.Dst = ReadEndpoint(c)
	ev.SID = int(c.U32())
	ev.Published = c.Time()
	ev.CVE = readName(c, names)
	ev.Msg = readName(c, names)
	ev.Bytes = int(c.U32())
	ev.Ambiguous = c.U8()&1 != 0
}

// readName reads a string16 field, shared through names when it is non-nil.
// The lookup names[string(b)] does not allocate; only a string not yet in
// names is copied.
func readName(c *wal.Cursor, names map[string]string) string {
	b := c.Bytes16()
	if names == nil {
		return string(b)
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}

// AppendEndpoint appends e as a wal addr field and a u16 port — the one
// endpoint encoding, shared by events, amendments and registry digests.
func AppendEndpoint(buf []byte, e packet.Endpoint) []byte {
	return binary.LittleEndian.AppendUint16(wal.AppendAddr(buf, e.Addr), e.Port)
}

// ReadEndpoint reads an AppendEndpoint field.
func ReadEndpoint(c *wal.Cursor) packet.Endpoint {
	addr := c.Addr()
	return packet.Endpoint{Addr: addr, Port: c.U16()}
}
