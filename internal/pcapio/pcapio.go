// Package pcapio reads and writes libpcap capture files (the classic
// tcpdump format, magic 0xa1b2c3d4 / 0xa1b23c4d). The telescope persists its
// captures in this format so they can be inspected with standard tooling,
// and the IDS replays them post facto — exactly the paper's workflow, where
// two years of pcap are re-evaluated against every signature after the fact.
//
// Both microsecond and nanosecond timestamp precisions are supported, as are
// both byte orders on read (files are written in little-endian, the common
// convention).
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for the classic pcap format.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

// LinkType values (a tiny subset; the telescope writes Ethernet).
const (
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101
)

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
	versionMajor    = 2
	versionMinor    = 4
	// maxRecordBytes bounds one record's (pcap) or block's (pcapng)
	// allocation regardless of what its length field claims — far above any
	// real snaplen, and small enough that corrupt input fails as an error
	// instead of a multi-gigabyte allocation.
	maxRecordBytes = 16 << 20
)

// Errors returned by the reader.
var (
	ErrBadMagic     = errors.New("pcapio: not a pcap file")
	ErrShortRecord  = errors.New("pcapio: truncated record")
	ErrSnaplenAbuse = errors.New("pcapio: record length exceeds snaplen")
)

// Packet is one captured record.
type Packet struct {
	// Timestamp of capture.
	Timestamp time.Time
	// OrigLen is the original length of the packet on the wire, which may
	// exceed len(Data) if the capture was truncated at snaplen.
	OrigLen int
	// Data is the captured bytes.
	Data []byte
}

// Writer writes a pcap file. It buffers internally; call Flush before the
// underlying writer is closed.
type Writer struct {
	w       *bufio.Writer
	nano    bool
	snaplen uint32
	hdr     [recordHeaderLen]byte
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithNanoPrecision makes the writer emit nanosecond-precision timestamps
// (magic 0xa1b23c4d).
func WithNanoPrecision() WriterOption { return func(w *Writer) { w.nano = true } }

// WithSnaplen sets the advertised snap length. Records longer than the
// snaplen are truncated on write with OrigLen preserved.
func WithSnaplen(n uint32) WriterOption { return func(w *Writer) { w.snaplen = n } }

// NewWriter creates a Writer and emits the file header immediately.
func NewWriter(w io.Writer, linkType uint32, opts ...WriterOption) (*Writer, error) {
	pw := &Writer{w: bufio.NewWriter(w), snaplen: 262144}
	for _, o := range opts {
		o(pw)
	}
	var hdr [fileHeaderLen]byte
	magic := uint32(magicMicro)
	if pw.nano {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs are zero by convention.
	binary.LittleEndian.PutUint32(hdr[16:20], pw.snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkType)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: writing file header: %w", err)
	}
	return pw, nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	origLen := len(data)
	if uint32(len(data)) > w.snaplen {
		data = data[:w.snaplen]
	}
	sec := ts.Unix()
	var frac int64
	if w.nano {
		frac = int64(ts.Nanosecond())
	} else {
		frac = int64(ts.Nanosecond()) / 1000
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(frac))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcapio: writing record data: %w", err)
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader reads a pcap file.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  uint32
	linkType uint32
}

// fileHeader is a parsed classic-pcap file header, shared between the
// buffered Reader and the incremental TailReader.
type fileHeader struct {
	order    binary.ByteOrder
	nano     bool
	snaplen  uint32
	linkType uint32
}

// parseFileHeader decodes the 24-byte classic pcap file header.
func parseFileHeader(hdr []byte) (fileHeader, error) {
	var fh fileHeader
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicro:
		fh.order = binary.LittleEndian
	case magicLE == magicNano:
		fh.order, fh.nano = binary.LittleEndian, true
	case magicBE == magicMicro:
		fh.order = binary.BigEndian
	case magicBE == magicNano:
		fh.order, fh.nano = binary.BigEndian, true
	default:
		return fh, fmt.Errorf("%w: magic 0x%08x", ErrBadMagic, magicLE)
	}
	if major := fh.order.Uint16(hdr[4:6]); major != versionMajor {
		return fh, fmt.Errorf("pcapio: unsupported version %d.%d", major, fh.order.Uint16(hdr[6:8]))
	}
	fh.snaplen = fh.order.Uint32(hdr[16:20])
	fh.linkType = fh.order.Uint32(hdr[20:24])
	return fh, nil
}

// NewReader parses the file header and prepares to iterate records.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{r: bufio.NewReader(r)}
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading file header: %w", err)
	}
	fh, err := parseFileHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pr.order, pr.nano = fh.order, fh.nano
	pr.snaplen, pr.linkType = fh.snaplen, fh.linkType
	return pr, nil
}

// LinkType returns the file's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Snaplen returns the file's snap length.
func (r *Reader) Snaplen() uint32 { return r.snaplen }

// NanoPrecision reports whether timestamps carry nanosecond precision.
func (r *Reader) NanoPrecision() bool { return r.nano }

// Next returns the next record, or io.EOF after the last one. The returned
// Data is freshly allocated and owned by the caller.
func (r *Reader) Next() (Packet, error) {
	var p Packet
	if err := r.NextInto(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextInto reads the next record into p, reusing p.Data's backing array when
// its capacity suffices — the allocation-free read path for the streaming
// front-end. The header is parsed in the read buffer and the body copied
// straight out of it, so a record that fits the buffer costs one copy;
// only a larger one is read through. On a non-nil error (io.EOF at a clean
// end of file after the last record, ErrShortRecord for a partial header or
// body) the contents of p are unspecified.
func (r *Reader) NextInto(p *Packet) error {
	hdr, err := r.r.Peek(recordHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return io.EOF
		}
		return shortRecord(len(hdr), err)
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	// Discard cannot fail for bytes Peek has just returned.
	r.r.Discard(recordHeaderLen)
	if r.snaplen > 0 && capLen > r.snaplen {
		return fmt.Errorf("%w: caplen %d > snaplen %d", ErrSnaplenAbuse, capLen, r.snaplen)
	}
	// A header with snaplen 0 leaves capLen otherwise unbounded; a corrupt or
	// hostile length must fail here, not in a multi-gigabyte allocation.
	if capLen > maxRecordBytes {
		return fmt.Errorf("%w: caplen %d exceeds limit %d", ErrSnaplenAbuse, capLen, maxRecordBytes)
	}
	n := int(capLen)
	growData(p, n)
	if n <= r.r.Size() {
		body, err := r.r.Peek(n)
		if err != nil {
			return shortRecord(len(body), err)
		}
		copy(p.Data, body)
		r.r.Discard(n)
	} else if _, err := io.ReadFull(r.r, p.Data); err != nil {
		return fmt.Errorf("pcapio: %w: %v", ErrShortRecord, err)
	}
	nanos := int64(frac)
	if !r.nano {
		nanos *= 1000
	}
	p.Timestamp = time.Unix(int64(sec), nanos).UTC()
	p.OrigLen = int(origLen)
	return nil
}

// shortRecord is the error for a record whose header or body stopped after
// got bytes, worded as io.ReadFull would have reported it.
func shortRecord(got int, err error) error {
	if err == io.EOF && got > 0 {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcapio: %w: %v", ErrShortRecord, err)
}

// growData resizes p.Data to n bytes, reusing the backing array when its
// capacity allows and allocating only to grow.
func growData(p *Packet, n int) {
	if cap(p.Data) >= n {
		p.Data = p.Data[:n]
	} else {
		p.Data = make([]byte, n)
	}
}

// ReadAll drains the reader, returning every record. It is a convenience for
// tests and small captures; the IDS streams with Next.
func (r *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// newBufioWriter exposes bufio construction for internal test fixtures that
// append blocks to an existing stream.
func newBufioWriter(w io.Writer) *bufio.Writer { return bufio.NewWriter(w) }
