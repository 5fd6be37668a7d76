package packet

import (
	"fmt"
	"net/netip"
)

// Packet is a fully decoded Ethernet/IPv4/TCP frame as captured by the
// telescope. Non-TCP and non-IPv4 frames are rejected by Decode; the study's
// collection methodology is TCP-only (DSCOPE accepts TCP on all ports).
//
// The layer pointers point into the Packet's own embedded backing headers
// (one struct, one allocation — or zero with DecodeInto), so a decoded
// Packet must be passed by pointer: copying the value would leave the copy's
// pointers aimed at the original.
type Packet struct {
	Eth *Ethernet
	IP  *IPv4
	TCP *TCP

	// Backing storage for the layer pointers above. DecodeInto overwrites
	// these in place, which is what makes the hot decode path allocation-free.
	eth Ethernet
	ip  IPv4
	tcp TCP
}

// Decode parses a full frame starting at the Ethernet layer. It returns an
// error if any layer is malformed or if the frame is not IPv4/TCP.
func Decode(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto decodes a full frame into p without allocating: the embedded
// backing headers are overwritten in place and every payload slice aliases
// data, so p may be reused across frames as long as each frame's buffer
// stays untouched until downstream consumers (reassembly copies what it
// retains) are done with the packet. On error the layer pointers are
// cleared, so a stale previous decode cannot be mistaken for this frame's.
func DecodeInto(p *Packet, data []byte) error {
	p.Eth, p.IP, p.TCP = nil, nil, nil
	if err := p.eth.DecodeFrom(data); err != nil {
		return err
	}
	if p.eth.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: 0x%04x", ErrNotIPv4, p.eth.EtherType)
	}
	if err := p.ip.DecodeFrom(p.eth.LayerPayload()); err != nil {
		return err
	}
	if p.ip.Protocol != IPProtoTCP {
		return fmt.Errorf("%w: protocol %d", ErrNotTCP, p.ip.Protocol)
	}
	if err := p.tcp.DecodeFrom(p.ip.LayerPayload()); err != nil {
		return err
	}
	p.Eth, p.IP, p.TCP = &p.eth, &p.ip, &p.tcp
	return nil
}

// Flow returns the directed flow of the packet.
func (p *Packet) Flow() Flow {
	return Flow{
		Src: Endpoint{Addr: p.IP.Src, Port: p.TCP.SrcPort},
		Dst: Endpoint{Addr: p.IP.Dst, Port: p.TCP.DstPort},
	}
}

// Payload returns the application-layer bytes of the packet.
func (p *Packet) Payload() []byte { return p.TCP.LayerPayload() }

// Builder assembles valid Ethernet/IPv4/TCP frames. It exists so the traffic
// generator and tests can produce byte-exact wire frames that round-trip
// through Decode, the pcap files, and TCP reassembly. Its only randomness is
// a single splitmix64 state word, so reseeding per session costs two stores.
type Builder struct {
	// SrcMAC and DstMAC are used for every frame. The defaults are
	// locally administered addresses.
	SrcMAC MAC
	DstMAC MAC
	// TTL for generated IPv4 headers. Defaults to 64 when zero.
	TTL uint8

	ipID uint16
	// state is the splitmix64 counter behind RandomISN; the seed is its
	// initial value.
	state uint64

	// Scratch for the inner layers of BuildTo, reused across frames so the
	// streaming synthesis path allocates nothing per packet.
	tcpScratch []byte
	ipScratch  []byte
}

// NewBuilder returns a Builder whose IP IDs and ISNs are deterministic in
// seed (the initial splitmix64 state).
func NewBuilder(seed int64) *Builder {
	return &Builder{
		SrcMAC: MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		DstMAC: MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		TTL:    64,
		state:  uint64(seed),
	}
}

// Reset rewinds the builder to its just-constructed state under a new seed:
// IP IDs restart at one and RandomISN replays the seed's sequence. It only
// stores the splitmix64 state, so streamed synthesis can reseed one builder
// per session — frame bytes then depend only on the session, not on how
// sessions are interleaved across generators — at no cost.
func (b *Builder) Reset(seed int64) {
	b.state = uint64(seed)
	b.ipID = 0
}

// Segment describes one TCP segment to build.
type Segment struct {
	Src     Endpoint
	Dst     Endpoint
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Payload []byte
}

// Build serializes the segment into a complete Ethernet frame.
func (b *Builder) Build(seg Segment) ([]byte, error) {
	return b.BuildTo(nil, seg)
}

// BuildTo serializes the segment into a complete Ethernet frame appended to
// dst (which may be nil). The inner layers serialize into builder-owned
// scratch, so a reused dst makes frame synthesis allocation-free — the
// streaming capture path lends the decoder's buffer here directly.
func (b *Builder) BuildTo(dst []byte, seg Segment) ([]byte, error) {
	if !seg.Src.Addr.Is4() || !seg.Dst.Addr.Is4() {
		return nil, fmt.Errorf("packet: builder requires IPv4 addresses, got %s -> %s", seg.Src.Addr, seg.Dst.Addr)
	}
	window := seg.Window
	if window == 0 {
		window = 65535
	}
	tcp := TCP{
		SrcPort: seg.Src.Port,
		DstPort: seg.Dst.Port,
		Seq:     seg.Seq,
		Ack:     seg.Ack,
		Flags:   seg.Flags,
		Window:  window,
	}
	var err error
	b.tcpScratch, err = tcp.SerializeTo(b.tcpScratch[:0], seg.Src.Addr, seg.Dst.Addr, seg.Payload)
	if err != nil {
		return nil, err
	}
	b.ipID++
	ip := IPv4{
		ID:       b.ipID,
		TTL:      b.ttl(),
		Protocol: IPProtoTCP,
		Src:      seg.Src.Addr,
		Dst:      seg.Dst.Addr,
	}
	b.ipScratch, err = ip.SerializeTo(b.ipScratch[:0], b.tcpScratch)
	if err != nil {
		return nil, err
	}
	eth := Ethernet{Dst: b.DstMAC, Src: b.SrcMAC, EtherType: EtherTypeIPv4}
	return eth.SerializeTo(dst, b.ipScratch), nil
}

func (b *Builder) ttl() uint8 {
	if b.TTL == 0 {
		return 64
	}
	return b.TTL
}

// RandomISN returns a pseudorandom initial sequence number: one splitmix64
// step of the seeded state (the mixer scanner.procSeed uses), so adjacent
// seeds give decorrelated ISNs and frame generation is reproducible.
func (b *Builder) RandomISN() uint32 {
	b.state += 0x9e3779b97f4a7c15
	z := b.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32((z ^ (z >> 31)) >> 32)
}

// MustAddr parses a dotted-quad IPv4 address, panicking on failure. Intended
// for tests and static configuration.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	if !a.Is4() {
		panic(fmt.Sprintf("packet: %s is not IPv4", s))
	}
	return a
}
