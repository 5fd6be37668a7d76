package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripMicro(t *testing.T) {
	testRoundTrip(t, false)
}

func TestRoundTripNano(t *testing.T) {
	testRoundTrip(t, true)
}

func testRoundTrip(t *testing.T, nano bool) {
	t.Helper()
	var buf bytes.Buffer
	var opts []WriterOption
	if nano {
		opts = append(opts, WithNanoPrecision())
	}
	w, err := NewWriter(&buf, LinkTypeEthernet, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2021, 12, 10, 3, 14, 15, 926535000, time.UTC)
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xab}, 1500),
	}
	for i, p := range payloads {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("LinkType = %d, want %d", r.LinkType(), LinkTypeEthernet)
	}
	if r.NanoPrecision() != nano {
		t.Errorf("NanoPrecision = %v, want %v", r.NanoPrecision(), nano)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d packets, want %d", len(got), len(payloads))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data, payloads[i]) {
			t.Errorf("packet %d data mismatch", i)
		}
		want := ts.Add(time.Duration(i) * time.Second)
		if !nano {
			want = want.Truncate(time.Microsecond)
		}
		if !p.Timestamp.Equal(want) {
			t.Errorf("packet %d timestamp = %v, want %v", i, p.Timestamp, want)
		}
		if p.OrigLen != len(payloads[i]) {
			t.Errorf("packet %d OrigLen = %d, want %d", i, p.OrigLen, len(payloads[i]))
		}
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, WithSnaplen(10))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x01}, 100)
	if err := w.WritePacket(time.Unix(0, 0), data); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 10 {
		t.Errorf("captured %d bytes, want 10", len(p.Data))
	}
	if p.OrigLen != 100 {
		t.Errorf("OrigLen = %d, want 100", p.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	data := make([]byte, fileHeaderLen)
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Error("NewReader accepted zero magic")
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-construct a big-endian microsecond pcap with one 4-byte record.
	var buf bytes.Buffer
	hdr := make([]byte, fileHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], magicMicro)
	binary.BigEndian.PutUint16(hdr[4:6], versionMajor)
	binary.BigEndian.PutUint16(hdr[6:8], versionMinor)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, recordHeaderLen)
	binary.BigEndian.PutUint32(rec[0:4], 1639100000)
	binary.BigEndian.PutUint32(rec[4:8], 123456)
	binary.BigEndian.PutUint32(rec[8:12], 4)
	binary.BigEndian.PutUint32(rec[12:16], 4)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeRaw {
		t.Errorf("LinkType = %d, want %d", r.LinkType(), LinkTypeRaw)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1639100000, 123456000).UTC()
	if !p.Timestamp.Equal(want) {
		t.Errorf("Timestamp = %v, want %v", p.Timestamp, want)
	}
	if !bytes.Equal(p.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("Data = %v", p.Data)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(1, 0), []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop off the last 3 bytes of the record body.
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("Next succeeded on truncated record")
	}
}

func TestTruncatedRecordHeader(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	_ = w.Flush()
	// Append half a record header.
	data := append(buf.Bytes(), make([]byte, recordHeaderLen/2)...)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("Next on half header = %v, want a short-record error", err)
	}
}

func TestCaplenExceedsSnaplenRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet, WithSnaplen(8))
	_ = w.Flush()
	rec := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(rec[8:12], 100) // caplen 100 > snaplen 8
	binary.LittleEndian.PutUint32(rec[12:16], 100)
	data := append(buf.Bytes(), rec...)
	data = append(data, make([]byte, 100)...)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("Next accepted caplen > snaplen")
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet)
	_ = w.Flush()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 0 {
		t.Errorf("read %d packets from empty file", len(pkts))
	}
}

// Property: any sequence of packets round-trips with data intact and
// timestamps preserved to the file's precision.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs []uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeEthernet, WithNanoPrecision())
		if err != nil {
			return false
		}
		for i, p := range payloads {
			var sec uint32
			if i < len(secs) {
				sec = secs[i]
			}
			if err := w.WritePacket(time.Unix(int64(sec), int64(i)).UTC(), p); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Data, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, err := NewWriter(io.Discard, LinkTypeEthernet)
	if err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x55}, 600)
	ts := time.Unix(1639100000, 0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(ts, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReaderNextIntoEdges pins the classic Reader's record boundaries: a
// clean end of file is io.EOF, any partial header or body is
// ErrShortRecord, and a record larger than the read buffer comes back whole.
func TestReaderNextIntoEdges(t *testing.T) {
	file := func(t *testing.T, sizes ...int) ([]byte, [][]byte) {
		t.Helper()
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeEthernet)
		if err != nil {
			t.Fatal(err)
		}
		var bodies [][]byte
		for i, n := range sizes {
			body := make([]byte, n)
			for j := range body {
				body[j] = byte(i*31 + j*7)
			}
			if err := w.WritePacket(time.Unix(int64(1600000000+i), 0), body); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), bodies
	}
	const bufSize = 4096 // bufio's default, which NewReader uses
	type tc struct {
		name    string
		sizes   []int // records written in full
		tail    int   // then drop this many bytes off the end (<0: append -tail header bytes)
		wantErr error // the error after the whole records
	}
	cases := []tc{
		{name: "eof at boundary", sizes: []int{60, 1500, 0, 72}, wantErr: io.EOF},
		{name: "empty body record", sizes: []int{0}, wantErr: io.EOF},
		{name: "short body", sizes: []int{72, 11}, tail: 3, wantErr: ErrShortRecord},
		{name: "body missing", sizes: []int{72, 11}, tail: 11, wantErr: ErrShortRecord},
		{name: "larger than buffer", sizes: []int{72, bufSize, bufSize + 1, 3 * bufSize, 72}, wantErr: io.EOF},
		{name: "short large body", sizes: []int{72, 3 * bufSize}, tail: 1, wantErr: ErrShortRecord},
	}
	for h := 1; h < recordHeaderLen; h++ {
		cases = append(cases, tc{name: fmt.Sprintf("header %d bytes", h), sizes: []int{72}, tail: -h, wantErr: ErrShortRecord})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, bodies := file(t, c.sizes...)
			whole := len(bodies)
			switch {
			case c.tail > 0:
				raw = raw[:len(raw)-c.tail]
				whole--
			case c.tail < 0:
				hdr := make([]byte, -c.tail)
				for i := range hdr {
					hdr[i] = 0xff
				}
				raw = append(raw, hdr...)
			}
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var p Packet
			for i := 0; i < whole; i++ {
				if err := r.NextInto(&p); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(p.Data, bodies[i]) || p.OrigLen != len(bodies[i]) {
					t.Fatalf("record %d: %d bytes (orig %d), want %d identical bytes", i, len(p.Data), p.OrigLen, len(bodies[i]))
				}
				if want := time.Unix(int64(1600000000+i), 0).UTC(); p.Timestamp != want {
					t.Fatalf("record %d: timestamp %v, want %v", i, p.Timestamp, want)
				}
			}
			err = r.NextInto(&p)
			if c.wantErr == io.EOF {
				if err != io.EOF {
					t.Fatalf("after %d records: %v, want io.EOF itself", whole, err)
				}
				return
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("after %d records: %v, want %v", whole, err, c.wantErr)
			}
		})
	}
}

// recordLoop serves a pcap file header once and then its records over and
// over, so a benchmark reads records forever without re-opening anything.
type recordLoop struct {
	hdr, recs []byte
	off       int
}

func (l *recordLoop) Read(p []byte) (int, error) {
	if len(l.hdr) > 0 {
		n := copy(p, l.hdr)
		l.hdr = l.hdr[n:]
		return n, nil
	}
	n := copy(p, l.recs[l.off:])
	l.off = (l.off + n) % len(l.recs)
	return n, nil
}

// BenchmarkReaderNextInto reads one 72-byte record per op (the telescope's
// mean frame size) into a reused Packet: the streamed scan's read path,
// which must not allocate.
func BenchmarkReaderNextInto(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet)
	if err != nil {
		b.Fatal(err)
	}
	frame := bytes.Repeat([]byte{0x45}, 72)
	for i := 0; i < 64; i++ {
		if err := w.WritePacket(time.Unix(int64(1600000000+i), 0), frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := NewReader(&recordLoop{hdr: raw[:fileHeaderLen], recs: raw[fileHeaderLen:]})
	if err != nil {
		b.Fatal(err)
	}
	p := Packet{Data: make([]byte, 0, 128)}
	b.SetBytes(recordHeaderLen + int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.NextInto(&p); err != nil {
			b.Fatal(err)
		}
	}
}
