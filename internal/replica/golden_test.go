package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/packet"
)

// goldenAmendments covers a re-label, a retraction and an IPv6 session.
func goldenAmendments() []eventstore.Amendment {
	at := time.Date(2022, 3, 1, 12, 0, 0, 5, time.UTC)
	ev := ids.Event{
		Time:      at,
		Src:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{203, 0, 113, 9}), Port: 40001},
		Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{18, 204, 7, 1}), Port: 443},
		SID:       990001,
		Published: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		CVE:       "2020-9999",
		Msg:       "early hikvision sig",
		Bytes:     777,
	}
	v6 := ev
	v6.Src = packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::9"), Port: 5}
	v6.Ambiguous = true
	return []eventstore.Amendment{
		{Event: ev, OrigSID: 58722, OrigCVE: "2021-36260", Gen: 1},
		{Event: ids.Event{Time: at, Src: ev.Src, Dst: ev.Dst}, OrigSID: 58722, OrigCVE: "2021-36260", Gen: 2},
		{Event: v6, Gen: 3},
	}
}

// TestWireGolden pins the bytes of every replica wire message to SHA-256
// values recorded from the hand-written encoders that preceded the shared
// field codec. A mismatch means replicas and coordinators built from
// different commits no longer understand each other.
func TestWireGolden(t *testing.T) {
	p := progress{Counts: []uint64{3, 0, 1 << 40}, Amends: 2}
	cases := []struct {
		name string
		msg  []byte
		want string
	}{
		{"RHello", (&rhello{Version: ProtocolVersion, ID: "replica-1", progress: p}).encode(),
			"9b332b320a520f676a20fa479488c7aeec1cf907cb5f52ba2ae401a62ab0fb58"},
		{"RState", encodeProgressMsg(msgRState, &p),
			"7bdb30d0aaac054b8390f0a67e6bea5d436f9098f607fdbc3c9c18ed704ba822"},
		{"RAmends", encodeAmends(goldenAmendments()),
			"6109107f8a1755e84f0cf1ef42defe8b6b6b6c1bf24f85d0d57ab17248bb61d4"},
		{"RAck", encodeProgressMsg(msgRAck, &p),
			"49d62defaae9e7de06f69b3582c2e8bc3a44e21a6712657fae9b95eb69063f42"},
		{"RErr", encodeRErr("replica store is ahead of the coordinator"),
			"ed2f8faedc4185006cf0d5024a155765d68867f08a5509a50092edffb466c9a3"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.msg)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: wire bytes hash to %s, want %s — the replica wire format changed. "+
				"If that is deliberate, bump ProtocolVersion and re-record this hash.", c.name, got, c.want)
		}
	}
}
