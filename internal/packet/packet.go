// Package packet implements the small packet-decoding core the study needs:
// Ethernet, IPv4, and TCP layer decoding and serialization, plus flow and
// endpoint abstractions for grouping packets into connections.
//
// The design follows the gopacket layering idiom: a packet is a stack of
// layers, each layer knows its own wire format, and flows/endpoints are
// fixed-size hashable values so they can key maps without allocation.
// Only the stdlib is used.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Layer is one protocol layer within a decoded packet.
type Layer interface {
	// LayerType identifies the protocol of this layer.
	LayerType() LayerType
	// LayerPayload returns the bytes this layer carries for the next layer
	// up the stack.
	LayerPayload() []byte
}

// LayerType identifies a protocol layer.
type LayerType uint8

// Layer types understood by this package.
const (
	LayerTypeUnknown LayerType = iota
	LayerTypeEthernet
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypePayload
)

// String returns a human-readable name for the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("Unknown(%d)", uint8(t))
	}
}

// Decode errors.
var (
	ErrTruncated   = errors.New("packet: truncated data")
	ErrBadVersion  = errors.New("packet: unexpected IP version")
	ErrBadHdrLen   = errors.New("packet: header length field out of range")
	ErrNotIPv4     = errors.New("packet: EtherType is not IPv4")
	ErrNotTCP      = errors.New("packet: IP protocol is not TCP")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
)

// EtherType values used by the study (the telescope sees only IPv4 traffic).
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IP protocol numbers.
const (
	IPProtoTCP uint8 = 6
)

// MAC is a 6-byte Ethernet hardware address.
type MAC [6]byte

// String formats the MAC in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is a decoded Ethernet II frame header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
	payload   []byte
}

// ethernetHeaderLen is the length of an Ethernet II header without VLAN tags.
const ethernetHeaderLen = 14

// DecodeFrom parses an Ethernet II frame into e, overwriting every field.
// The payload aliases data; callers that retain it across buffer reuse must
// copy. On error e is left in an unspecified state.
func (e *Ethernet) DecodeFrom(data []byte) error {
	if len(data) < ethernetHeaderLen {
		return fmt.Errorf("ethernet header: %w (%d bytes)", ErrTruncated, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.payload = data[14:]
	return nil
}

// LayerType implements Layer.
func (e *Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// LayerPayload implements Layer.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// SerializeTo appends the wire form of the header followed by payload to dst
// and returns the extended slice.
func (e *Ethernet) SerializeTo(dst []byte, payload []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	dst = binary.BigEndian.AppendUint16(dst, e.EtherType)
	return append(dst, payload...)
}

// IPv4 is a decoded IPv4 header.
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length from the header
	ID       uint16
	Flags    uint8 // top 3 bits of the fragment field
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte
	payload  []byte
}

// ipv4MinHeaderLen is the length of an IPv4 header without options.
const ipv4MinHeaderLen = 20

// DecodeFrom parses an IPv4 header into ip, validating its checksum and
// overwriting every field. Options and payload alias data. On error ip is
// left in an unspecified state.
func (ip *IPv4) DecodeFrom(data []byte) error {
	if len(data) < ipv4MinHeaderLen {
		return fmt.Errorf("ipv4 header: %w (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	ihl := data[0] & 0x0f
	hdrLen := int(ihl) * 4
	if hdrLen < ipv4MinHeaderLen {
		return fmt.Errorf("%w: IHL %d", ErrBadHdrLen, ihl)
	}
	if len(data) < hdrLen {
		return fmt.Errorf("ipv4 options: %w", ErrTruncated)
	}
	totalLen := binary.BigEndian.Uint16(data[2:4])
	if int(totalLen) < hdrLen {
		return fmt.Errorf("%w: total length %d < header length %d", ErrBadHdrLen, totalLen, hdrLen)
	}
	end := int(totalLen)
	if end > len(data) {
		// Captured frames may include Ethernet padding beyond the IP total
		// length, but a total length beyond the captured data is truncation.
		return fmt.Errorf("ipv4 body: %w (total length %d, have %d)", ErrTruncated, totalLen, len(data))
	}
	if Checksum(data[:hdrLen]) != 0 {
		return fmt.Errorf("ipv4 header: %w", ErrBadChecksum)
	}
	ip.IHL = ihl
	ip.TOS = data[1]
	ip.Length = totalLen
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	fragField := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(fragField >> 13)
	ip.FragOff = fragField & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	ip.Options = nil
	if hdrLen > ipv4MinHeaderLen {
		ip.Options = data[ipv4MinHeaderLen:hdrLen]
	}
	ip.payload = data[hdrLen:end]
	return nil
}

// DecodeIPv4 parses an IPv4 header and validates its checksum.
func DecodeIPv4(data []byte) (*IPv4, error) {
	ip := new(IPv4)
	if err := ip.DecodeFrom(data); err != nil {
		return nil, err
	}
	return ip, nil
}

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// LayerPayload implements Layer.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// HeaderLen returns the header length in bytes.
func (ip *IPv4) HeaderLen() int { return int(ip.IHL) * 4 }

// SerializeTo appends the wire form of the IPv4 header followed by payload to
// dst. Length, IHL and Checksum are computed; any values in those fields are
// ignored. Options are included and must be a multiple of 4 bytes.
func (ip *IPv4) SerializeTo(dst []byte, payload []byte) ([]byte, error) {
	if len(ip.Options)%4 != 0 {
		return nil, fmt.Errorf("packet: IPv4 options length %d not a multiple of 4", len(ip.Options))
	}
	hdrLen := ipv4MinHeaderLen + len(ip.Options)
	totalLen := hdrLen + len(payload)
	if totalLen > 0xffff {
		return nil, fmt.Errorf("packet: IPv4 total length %d exceeds 65535", totalLen)
	}
	start := len(dst)
	dst = append(dst, (4<<4)|uint8(hdrLen/4), ip.TOS)
	dst = binary.BigEndian.AppendUint16(dst, uint16(totalLen))
	dst = binary.BigEndian.AppendUint16(dst, ip.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	dst = append(dst, ip.TTL, ip.Protocol)
	dst = append(dst, 0, 0) // checksum placeholder
	src, dstAddr := ip.Src.As4(), ip.Dst.As4()
	dst = append(dst, src[:]...)
	dst = append(dst, dstAddr[:]...)
	dst = append(dst, ip.Options...)
	cs := Checksum(dst[start : start+hdrLen])
	binary.BigEndian.PutUint16(dst[start+10:start+12], cs)
	return append(dst, payload...), nil
}

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8 // header length in 32-bit words
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
	payload  []byte
}

// tcpMinHeaderLen is the length of a TCP header without options.
const tcpMinHeaderLen = 20

// DecodeFrom parses a TCP header into t, overwriting every field. Options
// and payload alias data. Checksum validation requires the IP pseudo-header,
// so it is performed separately by VerifyTCPChecksum. On error t is left in
// an unspecified state.
func (t *TCP) DecodeFrom(data []byte) error {
	if len(data) < tcpMinHeaderLen {
		return fmt.Errorf("tcp header: %w (%d bytes)", ErrTruncated, len(data))
	}
	dataOff := data[12] >> 4
	hdrLen := int(dataOff) * 4
	if hdrLen < tcpMinHeaderLen {
		return fmt.Errorf("%w: data offset %d", ErrBadHdrLen, dataOff)
	}
	if len(data) < hdrLen {
		return fmt.Errorf("tcp options: %w", ErrTruncated)
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOff = dataOff
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = nil
	if hdrLen > tcpMinHeaderLen {
		t.Options = data[tcpMinHeaderLen:hdrLen]
	}
	t.payload = data[hdrLen:]
	return nil
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// LayerPayload implements Layer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// SYN reports whether the SYN flag is set.
func (t *TCP) SYN() bool { return t.Flags&FlagSYN != 0 }

// ACK reports whether the ACK flag is set.
func (t *TCP) ACK() bool { return t.Flags&FlagACK != 0 }

// FIN reports whether the FIN flag is set.
func (t *TCP) FIN() bool { return t.Flags&FlagFIN != 0 }

// RST reports whether the RST flag is set.
func (t *TCP) RST() bool { return t.Flags&FlagRST != 0 }

// SerializeTo appends the wire form of the TCP header followed by payload to
// dst, computing DataOff and the checksum over the IPv4 pseudo-header for
// src/dst. Options must be a multiple of 4 bytes.
func (t *TCP) SerializeTo(dst []byte, src, dstAddr netip.Addr, payload []byte) ([]byte, error) {
	if len(t.Options)%4 != 0 {
		return nil, fmt.Errorf("packet: TCP options length %d not a multiple of 4", len(t.Options))
	}
	hdrLen := tcpMinHeaderLen + len(t.Options)
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, t.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, t.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, t.Seq)
	dst = binary.BigEndian.AppendUint32(dst, t.Ack)
	dst = append(dst, uint8(hdrLen/4)<<4, t.Flags&0x3f)
	dst = binary.BigEndian.AppendUint16(dst, t.Window)
	dst = append(dst, 0, 0) // checksum placeholder
	dst = binary.BigEndian.AppendUint16(dst, t.Urgent)
	dst = append(dst, t.Options...)
	dst = append(dst, payload...)
	cs := tcpChecksum(src, dstAddr, dst[start:])
	binary.BigEndian.PutUint16(dst[start+16:start+18], cs)
	return dst, nil
}

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// tcpChecksum computes the TCP checksum over the IPv4 pseudo-header plus
// segment, with the checksum field assumed zeroed in segment.
func tcpChecksum(src, dst netip.Addr, segment []byte) uint16 {
	var pseudo [12]byte
	s4, d4 := src.As4(), dst.As4()
	copy(pseudo[0:4], s4[:])
	copy(pseudo[4:8], d4[:])
	pseudo[9] = IPProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))

	var sum uint32
	add := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	add(pseudo[:])
	add(segment)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// VerifyTCPChecksum reports whether the TCP segment (header + payload, as
// captured) has a valid checksum under the IPv4 pseudo-header for src/dst.
func VerifyTCPChecksum(src, dst netip.Addr, segment []byte) bool {
	if len(segment) < tcpMinHeaderLen {
		return false
	}
	// Checksumming the segment with its embedded checksum in place yields 0
	// for a valid segment, same as the IP header rule.
	var pseudo [12]byte
	s4, d4 := src.As4(), dst.As4()
	copy(pseudo[0:4], s4[:])
	copy(pseudo[4:8], d4[:])
	pseudo[9] = IPProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))

	var sum uint32
	for i := 0; i+1 < len(pseudo); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(pseudo[i : i+2]))
	}
	for i := 0; i+1 < len(segment); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(segment[i : i+2]))
	}
	if len(segment)%2 == 1 {
		sum += uint32(segment[len(segment)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum) == 0
}
