package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"time"
)

// The field codec: how every payload inside a frame — events, amendments,
// commit records, digests, segments, checkpoints and the fleet and replica
// wire messages — lays out its fields.
//
//	integer   little-endian u8 / u16 / u32 / u64
//	time      i64 Unix seconds | u32 nanoseconds, decoded in UTC
//	addr      u8 length (0 = zero Addr, 4 or 16) | address bytes
//	string16  u16 length | bytes; Append clamps at 65535 bytes
//	bytes32   u32 length | bytes
//	count     u32, rejected when the unread bytes cannot hold that many
//	          elements of the list's minimum size
//
// Decoders read through a Cursor and encoders write with the Append helpers
// below (integers with encoding/binary's Append functions), so both sides of
// every format share one definition of each field.

// Cursor reads fields from a byte slice. Every read is bounds-checked and
// never panics; the first failure latches and every later read returns a
// zero value, so a decoder reads all its fields and checks once, with Finish
// or Err. A Cursor is a small value meant to live on the decoder's stack.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a Cursor over b. Slices it returns (Take, Bytes32, Rest)
// alias b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the latched failure, if any.
func (c *Cursor) Err() error { return c.err }

// Fail latches err unless a failure is already latched, and drops the unread
// bytes — how a decoder reports a field that is well-formed bytes but an
// invalid value.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

// Finish returns the latched failure wrapped with what, or an error naming
// what if unread bytes remain: a payload must be consumed exactly.
func (c *Cursor) Finish(what string) error {
	if c.err != nil {
		return fmt.Errorf("%s: %w", what, c.err)
	}
	if len(c.b) != 0 {
		return fmt.Errorf("wal: %d stray bytes after %s", len(c.b), what)
	}
	return nil
}

// Rest consumes and returns every unread byte.
func (c *Cursor) Rest() []byte {
	b := c.b
	c.b = nil
	return b
}

// errTruncated is a preformatted value so that Take, and with it every
// fixed-size read, stays small enough to inline.
var errTruncated = errors.New("wal: field runs past the end of its payload")

// Take consumes the next n bytes, or fails when fewer remain.
func (c *Cursor) Take(n int) []byte {
	if uint(n) > uint(len(c.b)) {
		c.Fail(errTruncated)
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if b := c.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count reads a u32 element count, failing when the unread bytes cannot hold
// that many elements of at least minElemBytes each. The count is untrusted
// input that sizes an allocation; checked here, a lying one costs an error
// instead of gigabytes.
func (c *Cursor) Count(minElemBytes int) int {
	n := c.U32()
	if uint64(n)*uint64(minElemBytes) > uint64(len(c.b)) {
		c.Fail(fmt.Errorf("wal: count %d of %d-byte elements exceeds the %d bytes left", n, minElemBytes, len(c.b)))
		return 0
	}
	return int(n)
}

// Time reads an AppendTime field.
func (c *Cursor) Time() time.Time {
	b := c.Take(12)
	if b == nil {
		return time.Time{}
	}
	return time.Unix(int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint32(b[8:]))).UTC()
}

// Addr reads an AppendAddr field.
func (c *Cursor) Addr() netip.Addr {
	n := int(c.U8())
	if n == 0 {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(c.Take(n))
	if !ok {
		c.Fail(fmt.Errorf("wal: bad address length %d", n))
	}
	return a
}

// String16 reads an AppendString16 field.
func (c *Cursor) String16() string { return string(c.Take(int(c.U16()))) }

// Bytes32 reads an AppendBytes32 field, aliasing the input.
func (c *Cursor) Bytes32() []byte { return c.Take(int(c.U32())) }

// AppendTime appends t as i64 Unix seconds and u32 nanoseconds, which keeps
// the whole time.Time range (zero times and far-future sentinels included)
// where UnixNano would overflow.
func AppendTime(buf []byte, t time.Time) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Unix()))
	return binary.LittleEndian.AppendUint32(buf, uint32(t.Nanosecond()))
}

// AppendAddr appends a as a u8 length and its 0, 4 or 16 bytes.
func AppendAddr(buf []byte, a netip.Addr) []byte {
	b := a.AsSlice()
	buf = append(buf, byte(len(b)))
	return append(buf, b...)
}

// AppendString16 appends s as a u16 length and its bytes, clamping s to its
// first 65535 bytes so the length always describes what follows.
func AppendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// AppendBytes32 appends b as a u32 length and its bytes.
func AppendBytes32(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}
