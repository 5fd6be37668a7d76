package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// pcapng support: the next-generation capture format (Section Header Block,
// Interface Description Block, Enhanced Packet Block). Real deployments
// increasingly store pcapng, so the post-facto replay path reads both
// formats; writing is supported for interchange with standard tooling.
//
// The implementation covers the single-section, single-interface captures
// the telescope produces. Unknown block types are skipped on read, per the
// specification.

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // Section Header Block
	blockIDB = 0x00000001 // Interface Description Block
	blockEPB = 0x00000006 // Enhanced Packet Block
	blockSPB = 0x00000003 // Simple Packet Block
)

const byteOrderMagic = 0x1A2B3C4D

// ErrNotPcapng marks input without a Section Header Block.
var ErrNotPcapng = errors.New("pcapio: not a pcapng file")

// NgWriter writes a pcapng capture with one interface.
type NgWriter struct {
	w       *bufio.Writer
	snaplen uint32
}

// NewNgWriter emits the Section Header and Interface Description blocks.
// Timestamps are written at nanosecond resolution (if_tsresol = 9).
func NewNgWriter(w io.Writer, linkType uint32) (*NgWriter, error) {
	nw := &NgWriter{w: bufio.NewWriter(w), snaplen: 262144}

	// Section Header Block: type, len, byte-order magic, version 1.0,
	// section length -1 (unknown), trailing len.
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:4], blockSHB)
	binary.LittleEndian.PutUint32(shb[4:8], 28)
	binary.LittleEndian.PutUint32(shb[8:12], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:14], 1) // major
	binary.LittleEndian.PutUint16(shb[14:16], 0) // minor
	binary.LittleEndian.PutUint64(shb[16:24], 0xFFFFFFFFFFFFFFFF)
	binary.LittleEndian.PutUint32(shb[24:28], 28)
	if _, err := nw.w.Write(shb); err != nil {
		return nil, fmt.Errorf("pcapio: writing SHB: %w", err)
	}

	// Interface Description Block with an if_tsresol=9 option.
	// Option: code 9, length 1, value 9, 3 pad bytes; then opt_endofopt.
	idb := make([]byte, 32)
	binary.LittleEndian.PutUint32(idb[0:4], blockIDB)
	binary.LittleEndian.PutUint32(idb[4:8], 32)
	binary.LittleEndian.PutUint16(idb[8:10], uint16(linkType))
	// reserved [10:12]
	binary.LittleEndian.PutUint32(idb[12:16], nw.snaplen)
	binary.LittleEndian.PutUint16(idb[16:18], 9) // if_tsresol
	binary.LittleEndian.PutUint16(idb[18:20], 1)
	idb[20] = 9 // 10^-9 seconds
	// [21:24] pad
	// opt_endofopt: code 0 len 0 at [24:28]
	binary.LittleEndian.PutUint32(idb[28:32], 32)
	if _, err := nw.w.Write(idb); err != nil {
		return nil, fmt.Errorf("pcapio: writing IDB: %w", err)
	}
	return nw, nil
}

// WritePacket appends one Enhanced Packet Block.
func (w *NgWriter) WritePacket(ts time.Time, data []byte) error {
	if uint32(len(data)) > w.snaplen {
		data = data[:w.snaplen]
	}
	pad := (4 - len(data)%4) % 4
	blockLen := 32 + len(data) + pad
	hdr := make([]byte, 28)
	binary.LittleEndian.PutUint32(hdr[0:4], blockEPB)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(blockLen))
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // interface 0
	nanos := uint64(ts.UnixNano())
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(nanos>>32))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(nanos))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(data)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	if pad > 0 {
		if _, err := w.w.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], uint32(blockLen))
	_, err := w.w.Write(trailer[:])
	return err
}

// Flush flushes buffered blocks.
func (w *NgWriter) Flush() error { return w.w.Flush() }

// NgReader reads a pcapng capture (single section; multiple interfaces are
// tolerated but all packets are returned in file order).
type NgReader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	linkType uint32
	tsresol  []time.Duration // per-interface tick duration
	buf      []byte          // reused block-body scratch for NextInto
}

// NewNgReader parses the Section Header Block.
func NewNgReader(r io.Reader) (*NgReader, error) {
	nr := &NgReader{r: bufio.NewReader(r)}
	var head [12]byte
	if _, err := io.ReadFull(nr.r, head[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading SHB: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != blockSHB {
		return nil, ErrNotPcapng
	}
	switch {
	case binary.LittleEndian.Uint32(head[8:12]) == byteOrderMagic:
		nr.order = binary.LittleEndian
	case binary.BigEndian.Uint32(head[8:12]) == byteOrderMagic:
		nr.order = binary.BigEndian
	default:
		return nil, fmt.Errorf("%w: bad byte-order magic", ErrNotPcapng)
	}
	blockLen := nr.order.Uint32(head[4:8])
	if blockLen < 28 || blockLen%4 != 0 {
		return nil, fmt.Errorf("pcapio: SHB length %d invalid", blockLen)
	}
	// Skip the rest of the SHB (version, section length, options, trailer).
	if _, err := io.CopyN(io.Discard, nr.r, int64(blockLen-12)); err != nil {
		return nil, fmt.Errorf("pcapio: skipping SHB body: %w", err)
	}
	return nr, nil
}

// LinkType returns the first interface's link type (0 before any IDB).
func (r *NgReader) LinkType() uint32 { return r.linkType }

// Next returns the next packet, skipping non-packet blocks, or io.EOF. The
// returned Data is freshly allocated and owned by the caller.
func (r *NgReader) Next() (Packet, error) {
	var p Packet
	if err := r.NextInto(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextInto is Next into a caller-owned Packet: block bodies land in an
// internal scratch buffer and the packet bytes are copied into p.Data,
// reusing its capacity. Steady-state reads allocate nothing. On a non-nil
// error the contents of p are unspecified.
func (r *NgReader) NextInto(p *Packet) error {
	for {
		var head [8]byte
		if _, err := io.ReadFull(r.r, head[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("pcapio: reading block header: %w", err)
		}
		blockType := r.order.Uint32(head[0:4])
		blockLen := r.order.Uint32(head[4:8])
		if blockLen < 12 || blockLen%4 != 0 || blockLen > maxRecordBytes {
			return fmt.Errorf("pcapio: block length %d invalid", blockLen)
		}
		bodyLen := int(blockLen - 12)
		if cap(r.buf) < bodyLen {
			r.buf = make([]byte, bodyLen)
		}
		body := r.buf[:bodyLen]
		if _, err := io.ReadFull(r.r, body); err != nil {
			return fmt.Errorf("pcapio: %w: %v", ErrShortRecord, err)
		}
		var trailer [4]byte
		if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
			return fmt.Errorf("pcapio: %w: missing trailer", ErrShortRecord)
		}
		if r.order.Uint32(trailer[:]) != blockLen {
			return fmt.Errorf("pcapio: block trailer mismatch")
		}
		switch blockType {
		case blockIDB:
			if len(body) < 8 {
				return fmt.Errorf("pcapio: IDB too short")
			}
			if len(r.tsresol) == 0 {
				r.linkType = uint32(r.order.Uint16(body[0:2]))
			}
			r.tsresol = append(r.tsresol, parseTsresol(body[8:], r.order))
		case blockEPB:
			return r.parseEPBInto(p, body)
		case blockSPB:
			// Simple Packet Block: original length then data, no timestamp.
			if len(body) < 4 {
				return fmt.Errorf("pcapio: SPB too short")
			}
			origLen := int(r.order.Uint32(body[0:4]))
			data := body[4:]
			if origLen < len(data) {
				data = data[:origLen]
			}
			growData(p, len(data))
			copy(p.Data, data)
			p.Timestamp = time.Unix(0, 0).UTC()
			p.OrigLen = origLen
			return nil
		default:
			// Unknown block: skip (already consumed).
		}
	}
}

func (r *NgReader) parseEPBInto(p *Packet, body []byte) error {
	if len(body) < 20 {
		return fmt.Errorf("pcapio: EPB too short")
	}
	iface := int(r.order.Uint32(body[0:4]))
	ts := uint64(r.order.Uint32(body[4:8]))<<32 | uint64(r.order.Uint32(body[8:12]))
	capLen := int(r.order.Uint32(body[12:16]))
	origLen := int(r.order.Uint32(body[16:20]))
	if capLen < 0 || 20+capLen > len(body) {
		return fmt.Errorf("pcapio: EPB captured length %d exceeds block", capLen)
	}
	tick := time.Microsecond // pcapng default resolution is 10^-6
	if iface < len(r.tsresol) && r.tsresol[iface] > 0 {
		tick = r.tsresol[iface]
	}
	growData(p, capLen)
	copy(p.Data, body[20:20+capLen])
	p.Timestamp = time.Unix(0, int64(ts)*int64(tick)).UTC()
	p.OrigLen = origLen
	return nil
}

// parseTsresol scans IDB options for if_tsresol (code 9) and returns the
// tick duration (default 1 µs). Only power-of-ten resolutions are produced
// by common tools; power-of-two resolutions are approximated.
func parseTsresol(opts []byte, order binary.ByteOrder) time.Duration {
	tick := time.Microsecond
	for len(opts) >= 4 {
		code := order.Uint16(opts[0:2])
		olen := int(order.Uint16(opts[2:4]))
		if code == 0 {
			break
		}
		if 4+olen > len(opts) {
			break
		}
		if code == 9 && olen >= 1 {
			v := opts[4]
			if v&0x80 == 0 {
				d := time.Second
				for i := 0; i < int(v); i++ {
					d /= 10
				}
				if d > 0 {
					tick = d
				}
			}
		}
		adv := 4 + olen + (4-olen%4)%4
		if adv > len(opts) {
			break
		}
		opts = opts[adv:]
	}
	return tick
}

// OpenCapture sniffs r and returns a unified packet iterator for either
// classic pcap or pcapng input.
func OpenCapture(r io.Reader) (PacketSource, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcapio: sniffing capture format: %w", err)
	}
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		return NewNgReader(br)
	}
	return NewReader(br)
}

// PacketSource is the unified read interface over both formats.
type PacketSource interface {
	// Next returns the next packet or io.EOF.
	Next() (Packet, error)
}

// ZeroCopySource is a PacketSource that can also read records into a
// caller-owned Packet, reusing its Data capacity so steady-state reads
// allocate nothing. Every source in this package implements it; consumers
// type-assert and fall back to Next for foreign sources.
type ZeroCopySource interface {
	PacketSource
	// NextInto reads the next record into p. On a non-nil error (including
	// io.EOF) the contents of p are unspecified.
	NextInto(p *Packet) error
}

// FlowPartitionedSource is a PacketSource holding whole flows — every packet
// of its connections, none of a sibling's — in no time order across flows.
type FlowPartitionedSource interface {
	PacketSource
	FlowPartitioned() // a marker; it does nothing
}
