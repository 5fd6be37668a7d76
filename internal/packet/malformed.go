package packet

import "encoding/binary"

// MalformedFrames derives, from a valid frame as Builder builds it (no IP
// options, nothing past the IPv4 total length), one frame for each way
// DecodeInto rejects input: a truncated Ethernet header, an IHL below 5, a
// total length beyond the captured bytes, a bad IPv4 header checksum, a
// protocol other than TCP, a truncated TCP header and a non-IPv4 EtherType.
// Capture fixtures plant them to pin decode-error accounting.
func MalformedFrames(valid []byte) [][]byte {
	clone := func() []byte { return append([]byte(nil), valid...) }
	// resum recomputes the IPv4 header checksum after an edit, so the frame
	// fails on the edit rather than on the checksum.
	resum := func(f []byte) []byte {
		hdr := f[ethernetHeaderLen : ethernetHeaderLen+ipv4MinHeaderLen]
		binary.BigEndian.PutUint16(hdr[10:], 0)
		binary.BigEndian.PutUint16(hdr[10:], Checksum(hdr))
		return f
	}

	shortIHL := clone()
	shortIHL[ethernetHeaderLen] = 0x44
	badSum := clone()
	badSum[ethernetHeaderLen+10] ^= 0xff
	udp := clone()
	udp[ethernetHeaderLen+9] = 17
	const tcpKept = 10 // bytes of TCP header left
	shortTCP := clone()[:ethernetHeaderLen+ipv4MinHeaderLen+tcpKept]
	binary.BigEndian.PutUint16(shortTCP[ethernetHeaderLen+2:], ipv4MinHeaderLen+tcpKept)
	ipv6 := clone()
	binary.BigEndian.PutUint16(ipv6[12:], 0x86dd)
	return [][]byte{
		clone()[:ethernetHeaderLen-4],
		shortIHL,
		clone()[:len(valid)-1],
		badSum,
		resum(udp),
		resum(shortTCP),
		ipv6,
	}
}
