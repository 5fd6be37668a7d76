package wal

import (
	"errors"
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// appendFields encodes one of every field kind.
func appendFields(buf []byte) []byte {
	buf = append(buf, 0xab)
	buf = append(buf, 0x34, 0x12)
	buf = append(buf, 0x78, 0x56, 0x34, 0x12)
	buf = append(buf, 8, 7, 6, 5, 4, 3, 2, 1)
	buf = AppendTime(buf, time.Date(2090, 1, 1, 0, 0, 0, 7, time.UTC))
	buf = AppendTime(buf, time.Time{})
	buf = AppendAddr(buf, netip.MustParseAddr("203.0.113.9"))
	buf = AppendAddr(buf, netip.MustParseAddr("2001:db8::1"))
	buf = AppendAddr(buf, netip.Addr{})
	buf = AppendString16(buf, "CVE-2021-44228")
	buf = AppendBytes32(buf, []byte{1, 2, 3})
	return append(buf, 2, 0, 0, 0, 0xaa, 0xbb) // a count of two 1-byte elements
}

type fields struct {
	u8            uint8
	u16           uint16
	u32           uint32
	u64           uint64
	far, zero     time.Time
	v4, v6, none  netip.Addr
	s             string
	b             []byte
	count, e1, e2 int
}

func readFields(c *Cursor) fields {
	var f fields
	f.u8, f.u16, f.u32, f.u64 = c.U8(), c.U16(), c.U32(), c.U64()
	f.far, f.zero = c.Time(), c.Time()
	f.v4, f.v6, f.none = c.Addr(), c.Addr(), c.Addr()
	f.s, f.b = c.String16(), c.Bytes32()
	f.count = c.Count(1)
	f.e1, f.e2 = int(c.U8()), int(c.U8())
	return f
}

func TestCursorRoundTrip(t *testing.T) {
	buf := appendFields(nil)
	c := NewCursor(buf)
	f := readFields(&c)
	if err := c.Finish("fields"); err != nil {
		t.Fatal(err)
	}
	if f.u8 != 0xab || f.u16 != 0x1234 || f.u32 != 0x12345678 || f.u64 != 0x0102030405060708 {
		t.Fatalf("integers: %+v", f)
	}
	if !f.far.Equal(time.Date(2090, 1, 1, 0, 0, 0, 7, time.UTC)) || f.far.Location() != time.UTC || !f.zero.IsZero() {
		t.Fatalf("times: %v %v", f.far, f.zero)
	}
	if f.v4 != netip.MustParseAddr("203.0.113.9") || f.v6 != netip.MustParseAddr("2001:db8::1") || f.none.IsValid() {
		t.Fatalf("addrs: %v %v %v", f.v4, f.v6, f.none)
	}
	if f.s != "CVE-2021-44228" || string(f.b) != "\x01\x02\x03" || f.count != 2 || f.e1 != 0xaa || f.e2 != 0xbb {
		t.Fatalf("variable fields: %+v", f)
	}

	// Every strict prefix fails, and the failure latches: reads after it
	// return zero values rather than misparsing the bytes behind the cut.
	for cut := 0; cut < len(buf); cut++ {
		c := NewCursor(buf[:cut])
		readFields(&c)
		if c.Finish("fields") == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
	c = NewCursor(append(buf, 0))
	readFields(&c)
	if err := c.Finish("fields"); err == nil || !strings.Contains(err.Error(), "1 stray bytes after fields") {
		t.Fatalf("stray byte: %v", err)
	}
}

func TestCursorRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(c *Cursor)
	}{
		{"count beyond the bytes", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, func(c *Cursor) { c.Count(4) }},
		{"count 2^32-1", []byte{0xff, 0xff, 0xff, 0xff}, func(c *Cursor) { c.Count(1) }},
		{"address of 5 bytes", []byte{5, 1, 2, 3, 4, 5}, func(c *Cursor) { c.Addr() }},
		{"bytes32 beyond the bytes", []byte{0xff, 0xff, 0xff, 0xff, 1}, func(c *Cursor) { c.Bytes32() }},
		{"take of a negative length", []byte{1, 2}, func(c *Cursor) { c.Take(-1) }},
	} {
		c := NewCursor(tc.b)
		tc.read(&c)
		if c.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if c.Rest() != nil {
			t.Errorf("%s: a failed cursor still has bytes to read", tc.name)
		}
	}

	// The first failure wins.
	first := errors.New("first")
	c := NewCursor([]byte{1})
	c.Fail(first)
	c.U32()
	c.Fail(errors.New("second"))
	if !errors.Is(c.Finish("x"), first) {
		t.Fatalf("latched %v, want the first failure", c.Err())
	}
}

func TestAppendString16Clamps(t *testing.T) {
	long := strings.Repeat("9", 70000)
	c := NewCursor(AppendString16(nil, long))
	if got := c.String16(); got != long[:math.MaxUint16] || c.Finish("string") != nil {
		t.Fatalf("read back %d bytes, err %v; want the %d-byte prefix", len(got), c.Err(), math.MaxUint16)
	}
}

// TestCursorFixedReadsAllocFree: the cursor lives on its decoder's stack;
// reading fixed-size fields must not allocate.
func TestCursorFixedReadsAllocFree(t *testing.T) {
	buf := appendFields(nil)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		c := NewCursor(buf)
		sink += uint64(c.U8()) + uint64(c.U16()) + uint64(c.U32()) + c.U64()
		sink += uint64(c.Time().Unix()) + uint64(c.Time().Unix())
		if c.Addr().Is4() && c.Addr().Is6() {
			sink++
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per run of fixed-size reads", allocs)
	}
}
