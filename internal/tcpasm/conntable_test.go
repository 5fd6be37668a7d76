package tcpasm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
)

// tableConn makes a conn between two distinct endpoints derived from i,
// under the given (possibly forced) flow word.
func tableConn(i int, h uint64) *conn {
	return &conn{
		h:      h,
		client: packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", i%250+1)), Port: uint16(20000 + i)},
		server: packet.Endpoint{Addr: packet.MustAddr("198.51.100.1"), Port: 80},
	}
}

// checkTable verifies the open-addressing invariants: the count matches the
// occupied slots, each slot's word is its conn's, every occupied slot is
// reachable from its home without crossing an empty slot, and every conn
// is found from either direction.
func checkTable(t *testing.T, tab *connTable) {
	t.Helper()
	mask := uint64(len(tab.slots) - 1)
	n := 0
	for j, s := range tab.slots {
		if s.c == nil {
			continue
		}
		n++
		if s.h != s.c.h {
			t.Fatalf("slot %d caches word %#x, conn has %#x", j, s.h, s.c.h)
		}
		for i := s.h & mask; i != uint64(j); i = (i + 1) & mask {
			if tab.slots[i].c == nil {
				t.Fatalf("slot %d (home %d) sits past empty slot %d", j, s.h&mask, i)
			}
		}
		if tab.get(s.h, s.c.client, s.c.server) != s.c || tab.get(s.h, s.c.server, s.c.client) != s.c {
			t.Fatalf("slot %d: conn not found by its endpoints", j)
		}
	}
	if n != tab.n {
		t.Fatalf("table counts %d conns, slots hold %d", tab.n, n)
	}
}

// TestConnTableCollisions: conns sharing one flow word are told apart by
// their endpoints, and stay findable as members of the run are removed.
func TestConnTableCollisions(t *testing.T) {
	var tab connTable
	const h = 0xfeedface
	conns := make([]*conn, 20)
	for i := range conns {
		conns[i] = tableConn(i, h)
		tab.insert(conns[i])
	}
	checkTable(t, &tab)
	stranger := tableConn(99, h)
	if tab.get(h, stranger.client, stranger.server) != nil {
		t.Fatal("an absent conn with a colliding word was found")
	}
	for _, i := range []int{0, 7, 19, 3} {
		tab.remove(conns[i])
		if tab.get(h, conns[i].client, conns[i].server) != nil {
			t.Fatalf("conn %d still found after removal", i)
		}
		checkTable(t, &tab)
	}
}

// TestConnTableWrapDelete: a probe run that wraps past the last slot keeps
// every entry reachable when members on either side of the wrap go.
func TestConnTableWrapDelete(t *testing.T) {
	for victim := 0; victim < 6; victim++ {
		var tab connTable
		last := uint64(minConnSlots - 1)
		// Homes: the last two slots, then slot 0 and 1: the run wraps.
		homes := []uint64{last - 1, last, last - 1, 0, last, 1}
		conns := make([]*conn, len(homes))
		for i, home := range homes {
			conns[i] = tableConn(i, home+uint64(i)<<32) // distinct words, chosen homes
			tab.insert(conns[i])
		}
		if len(tab.slots) != minConnSlots {
			t.Fatalf("table grew to %d slots", len(tab.slots))
		}
		if tab.slots[0].c == nil || tab.slots[3].c == nil {
			t.Fatal("the probe run does not wrap")
		}
		tab.remove(conns[victim])
		checkTable(t, &tab)
		for i, c := range conns {
			if found := tab.get(c.h, c.client, c.server) == c; found == (i == victim) {
				t.Fatalf("victim %d: conn %d found=%v", victim, i, found)
			}
		}
	}
}

// TestConnTableFinishDuringAdvance: Advance and Flush finish conns that
// share a wrapping probe run; the survivors stay reachable and every
// finished conn yields exactly one session.
func TestConnTableFinishDuringAdvance(t *testing.T) {
	a := NewAssembler(Config{IdleTimeout: time.Minute})
	t0 := time.Date(2022, 6, 3, 12, 0, 0, 0, time.UTC)
	last := uint64(minConnSlots - 1)
	var conns []*conn
	for i := 0; i < 12; i++ {
		c := tableConn(i, last-2+uint64(i%3)+uint64(i)<<32)
		c.start = t0
		c.last = t0
		if i%2 == 1 {
			c.last = t0.Add(time.Hour) // still active at the horizon below
		}
		a.conns.insert(c)
		conns = append(conns, c)
	}
	a.Advance(t0.Add(time.Hour))
	checkTable(t, &a.conns)
	idled := a.Sessions()
	if len(idled) != 6 || a.OpenConns() != 6 {
		t.Fatalf("Advance finished %d conns, left %d open; want 6 and 6", len(idled), a.OpenConns())
	}
	for _, s := range idled {
		if s.Client.Port%2 != 0 {
			t.Fatalf("active conn %v idled out", s.Client)
		}
	}
	for i := 1; i < len(conns); i += 2 {
		if c := conns[i]; a.conns.get(c.h, c.client, c.server) != c {
			t.Fatalf("survivor %v lost", c.client)
		}
	}
	a.Flush()
	if got := len(a.Sessions()); got != 6 || a.OpenConns() != 0 {
		t.Fatalf("Flush finished %d conns, left %d open", got, a.OpenConns())
	}
	checkTable(t, &a.conns)
	if len(a.free) != 12 {
		t.Fatalf("%d conns on the free list, want 12", len(a.free))
	}
}

// TestConnTableMatchesMap drives a seeded sequence of inserts, lookups and
// removals over a small word space (so runs collide, wrap and grow) and
// checks the table against a map as it goes.
func TestConnTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var tab connTable
	ref := make(map[int]*conn)
	const keys = 400
	word := func(k int) uint64 { return uint64(rng.Intn(5))<<40 | uint64(k%23)*9 }
	words := make([]uint64, keys)
	for k := range words {
		words[k] = word(k)
	}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(keys)
		if step > 12000 {
			k = rng.Intn(keys / 4) // shrink the live set: long delete streaks
		}
		c, live := ref[k]
		switch op := rng.Intn(3); {
		case op == 0 && !live:
			c = tableConn(k, words[k])
			tab.insert(c)
			ref[k] = c
		case op == 1 && live:
			tab.remove(c)
			delete(ref, k)
		default:
			probe := tableConn(k, words[k])
			if got := tab.get(words[k], probe.server, probe.client); got != ref[k] {
				t.Fatalf("step %d: get(%d) = %p, map holds %p", step, k, got, ref[k])
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d, map %d", step, tab.n, len(ref))
		}
		if step%1000 == 0 {
			checkTable(t, &tab)
		}
	}
	checkTable(t, &tab)
	if len(tab.slots) <= minConnSlots {
		t.Fatalf("the table never grew (%d slots)", len(tab.slots))
	}
}

// TestConnReuse: a conn recycled through the free list carries nothing
// from its previous session — no stream bytes, pending segments or SYN
// state — so a session fed through it equals a fresh Assembler's.
func TestConnReuse(t *testing.T) {
	other := packet.Endpoint{Addr: packet.MustAddr("203.0.113.4"), Port: 40404}
	second := func(f *flowBuilder) {
		// Mid-stream pickup, no SYN: the first source is the client.
		f.feed(packet.Segment{Src: other, Dst: srv, Seq: 300, Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("second ")})
		f.feed(packet.Segment{Src: other, Dst: srv, Seq: 307, Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("session")})
	}

	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("first "))
	// A future segment that never becomes contiguous: it stays pending.
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq + 50, Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("stranded")})
	f.serverSend([]byte("banner"))
	f.reset()
	first := singleSession(t, a)
	if !bytes.Equal(first.ClientData, []byte("first ")) || !first.Complete {
		t.Fatalf("first session: %+v", first)
	}
	if len(a.free) != 1 {
		t.Fatalf("%d conns on the free list after the first session, want 1", len(a.free))
	}
	recycled := a.free[0]
	if !reflect.DeepEqual(*recycled, conn{}) {
		t.Fatalf("finished conn not zeroed: %+v", *recycled)
	}
	second(f)
	if len(a.free) != 0 || a.conns.get(flowWord(packet.Flow{Src: other, Dst: srv}), other, srv) != recycled {
		t.Fatal("the second session did not reuse the finished conn")
	}
	a.Flush()
	got := a.Sessions()

	fresh := NewAssembler(Config{})
	ff := newFlow(t, fresh)
	ff.ts = f.ts.Add(-20 * time.Millisecond) // the same two timestamps
	second(ff)
	fresh.Flush()
	diffSessions(t, got, fresh.Sessions())
	if got[0].Complete || !bytes.Equal(got[0].ClientData, []byte("second session")) || len(got[0].ServerData) != 0 {
		t.Fatalf("state carried over into the reused conn: %+v", got[0])
	}
}
