package tcpasm

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
	"repro/internal/packet"
)

// withIPOptions returns frame with four NOP bytes of IPv4 options inserted
// (IHL 6) and the header checksum recomputed, so the TCP ports move off
// their usual offset.
func withIPOptions(frame []byte) []byte {
	const eth = 14
	out := append([]byte(nil), frame[:eth+20]...)
	out = append(out, 1, 1, 1, 1)
	out = append(out, frame[eth+20:]...)
	ip := out[eth : eth+24]
	ip[0] = 0x46
	binary.BigEndian.PutUint16(ip[2:], binary.BigEndian.Uint16(ip[2:])+4)
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], packet.Checksum(ip))
	return out
}

// fuzzRouteSeeds are the committed FuzzRouteFrame starting population:
// decodable frames (a SYN, a data segment, one with IPv4 options, Ethernet
// padding past the IPv4 total length) and one frame per decode error class.
func fuzzRouteSeeds() [][]byte {
	bld := packet.NewBuilder(3)
	a := packet.Endpoint{Addr: packet.MustAddr("192.0.2.77"), Port: 42424}
	b := packet.Endpoint{Addr: packet.MustAddr("198.51.100.5"), Port: 8080}
	syn, _ := bld.Build(packet.Segment{Src: a, Dst: b, Seq: 9, Flags: packet.FlagSYN})
	data, _ := bld.Build(packet.Segment{Src: b, Dst: a, Seq: 7, Ack: 10, Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("220 ready\r\n")})
	seeds := [][]byte{
		syn,
		data,
		withIPOptions(data),
		append(append([]byte(nil), syn...), make([]byte, 6)...),
		{},
	}
	return append(seeds, packet.MalformedFrames(data)...)
}

// FuzzRouteFrame: whenever DecodeInto accepts a frame, the feeder's raw
// route must send it where shardOf its decoded flow does, for every width,
// and the word it hands the shard must be flowWord of that flow — the
// shard keys its connection table by it; any other input must still route
// in range without panicking.
func FuzzRouteFrame(f *testing.F) {
	for _, seed := range fuzzRouteSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var p packet.Packet
		decoded := packet.DecodeInto(&p, frame) == nil
		for n := 1; n <= 8; n++ {
			got, h := routeFrame(frame, n)
			if got < 0 || got >= n {
				t.Fatalf("routeFrame(%d shards) = %d", n, got)
			}
			if decoded {
				if want := shardOf(p.Flow(), n); got != want {
					t.Fatalf("flow %v, %d shards: raw route %d, decoded route %d", p.Flow(), n, got, want)
				}
				if want := flowWord(p.Flow()); h != want {
					t.Fatalf("flow %v: handed word %#x, flowWord %#x", p.Flow(), h, want)
				}
			}
		}
	})
}

// TestRegenFuzzRouteFrameCorpus rewrites the committed seed corpus when
// REGEN_FUZZ_CORPUS is set, keeping files and in-code seeds in sync.
func TestRegenFuzzRouteFrameCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite the committed corpus")
	}
	fuzzcorpus.Write(t, "FuzzRouteFrame", fuzzRouteSeeds())
}

// TestEndpointWordIs4 pins the IPv4 shortcut to the general path: an IPv4
// endpoint and its v4-mapped IPv6 spelling (which is not Is4, so it takes
// the As16 path) hash to the same word, and that word is the As16 formula.
func TestEndpointWordIs4(t *testing.T) {
	for _, addr := range []string{"0.0.0.0", "255.255.255.255", "192.0.2.1", "10.1.2.3", "127.0.0.1"} {
		for _, port := range []uint16{0, 1, 80, 8080, 65535} {
			v4 := packet.Endpoint{Addr: netip.MustParseAddr(addr), Port: port}
			mapped := packet.Endpoint{Addr: netip.AddrFrom16(v4.Addr.As16()), Port: port}
			if mapped.Addr.Is4() {
				t.Fatalf("%s: mapped form is Is4", mapped.Addr)
			}
			a := v4.Addr.As16()
			hi, lo := binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])
			formula := mix64(hi*0x9e3779b97f4a7c15 ^ lo ^ uint64(port)<<48)
			if got, want := endpointWord(v4), endpointWord(mapped); got != want || got != formula {
				t.Errorf("%v: Is4 path %#x, As16 path %#x, formula %#x", v4, got, want, formula)
			}
		}
	}
}

// TestShardedCountsDecodeErrors: frames that do not decode still cross to
// a shard — the raw route reads what it can, the rest go to shard 0 — and
// each shard counts the ones it rejects; decodable frames reassemble as
// if the bad ones were not there.
func TestShardedCountsDecodeErrors(t *testing.T) {
	events := genTraffic(t, 23, 24)
	cfg := Config{IdleTimeout: 2 * time.Second}
	want := serialSessions(t, cfg, events)
	bad := packet.MalformedFrames(events[len(events)/2].frame)
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			scfg := cfg
			scfg.Shards = shards
			s, c := newCollecting(scfg, 1)
			f := s.Feeder(0)
			it := f.Get()
			for i, ev := range events {
				it.TS = ev.ts
				if i%7 == 0 && i/7 < len(bad) {
					it.Buf = append(it.Buf[:0], bad[i/7]...)
					f.Feed(it)
				}
				it.Buf = append(it.Buf[:0], ev.frame...)
				f.Feed(it)
			}
			f.Close()
			diffSessions(t, c.wait(s), want)
			if got := s.DecodeErrors(); got != len(bad) {
				t.Errorf("DecodeErrors = %d, want %d", got, len(bad))
			}
			var applied uint64
			for _, st := range s.ShardStats() {
				applied += st.Packets
			}
			if want := uint64(len(events) + len(bad)); applied != want {
				t.Errorf("shards applied %d frames, want %d", applied, want)
			}
		})
	}
}
