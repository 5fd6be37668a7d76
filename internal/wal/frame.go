package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameHeaderLen is the fixed per-record overhead: u32 length + u32 CRC.
const FrameHeaderLen = 8

var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendFrame appends one framed record to buf:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// little-endian. The length prefix plus CRC makes a tail self-describing: a
// reader walks records until the first short, oversized or corrupt one.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// ScanFrames walks AppendFrame records in b, calling fn for each intact
// payload of at most max bytes. It returns the byte offset of the first
// incomplete, oversized or corrupt frame — the truncation point for crash
// recovery — and whether the whole buffer was clean. An fn error aborts the
// scan at the offending frame's offset.
func ScanFrames(b []byte, max int, fn func(payload []byte) error) (good int, clean bool, err error) {
	off := 0
	for {
		if len(b)-off < FrameHeaderLen {
			return off, len(b) == off, nil
		}
		length := binary.LittleEndian.Uint32(b[off : off+4])
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if uint64(length) > uint64(max) || len(b)-off-FrameHeaderLen < int(length) {
			return off, false, nil
		}
		payload := b[off+FrameHeaderLen : off+FrameHeaderLen+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, false, nil
		}
		if err := fn(payload); err != nil {
			return off, false, err
		}
		off += FrameHeaderLen + int(length)
	}
}

// intactFrame reports whether b begins with a complete, CRC-valid frame of
// any length — how recovery tells real data beyond the record cap (refuse)
// from a torn append (truncate).
func intactFrame(b []byte) bool {
	if len(b) < FrameHeaderLen {
		return false
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(len(b)-FrameHeaderLen) < uint64(n) {
		return false
	}
	return crc32.Checksum(b[FrameHeaderLen:FrameHeaderLen+int(n)], crcTable) == binary.LittleEndian.Uint32(b[4:8])
}

// WriteFrame writes one AppendFrame record to a stream, refusing a payload
// the peer's ReadFrame (at the same max) would reject.
func WriteFrame(w io.Writer, payload []byte, max int) error {
	if len(payload) > max {
		return fmt.Errorf("wal: frame of %d bytes exceeds the %d-byte limit", len(payload), max)
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, FrameHeaderLen+len(payload)), payload))
	return err
}

// ReadFrame reads one AppendFrame record from a stream into buf's storage
// (growing it as needed), verifying the length bound and the CRC. A clean
// end of stream before the header returns the reader's bare error (io.EOF).
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if uint64(length) > uint64(max) {
		return nil, fmt.Errorf("wal: frame length %d exceeds the %d-byte limit", length, max)
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wal: truncated frame: %w", err)
	}
	if crc32.Checksum(buf, crcTable) != sum {
		return nil, fmt.Errorf("wal: frame CRC mismatch")
	}
	return buf, nil
}
