package tcpasm

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
)

var (
	cli = packet.Endpoint{Addr: packet.MustAddr("192.0.2.10"), Port: 50000}
	srv = packet.Endpoint{Addr: packet.MustAddr("198.51.100.5"), Port: 8080}
)

// flowBuilder produces the segments of a scripted TCP conversation.
type flowBuilder struct {
	t      *testing.T
	b      *packet.Builder
	a      *Assembler
	ts     time.Time
	cliSeq uint32
	srvSeq uint32
}

func newFlow(t *testing.T, a *Assembler) *flowBuilder {
	return &flowBuilder{
		t:      t,
		b:      packet.NewBuilder(42),
		a:      a,
		ts:     time.Date(2022, 6, 3, 12, 0, 0, 0, time.UTC),
		cliSeq: 1000,
		srvSeq: 9000,
	}
}

func (f *flowBuilder) feed(seg packet.Segment) {
	f.t.Helper()
	frame, err := f.b.Build(seg)
	if err != nil {
		f.t.Fatal(err)
	}
	p, err := packet.Decode(frame)
	if err != nil {
		f.t.Fatal(err)
	}
	f.a.Feed(f.ts, p)
	f.ts = f.ts.Add(10 * time.Millisecond)
}

func (f *flowBuilder) handshake() {
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq, Flags: packet.FlagSYN})
	f.cliSeq++
	f.feed(packet.Segment{Src: srv, Dst: cli, Seq: f.srvSeq, Ack: f.cliSeq, Flags: packet.FlagSYN | packet.FlagACK})
	f.srvSeq++
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq, Ack: f.srvSeq, Flags: packet.FlagACK})
}

func (f *flowBuilder) clientSend(data []byte) {
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq, Ack: f.srvSeq, Flags: packet.FlagPSH | packet.FlagACK, Payload: data})
	f.cliSeq += uint32(len(data))
}

func (f *flowBuilder) serverSend(data []byte) {
	f.feed(packet.Segment{Src: srv, Dst: cli, Seq: f.srvSeq, Ack: f.cliSeq, Flags: packet.FlagPSH | packet.FlagACK, Payload: data})
	f.srvSeq += uint32(len(data))
}

func (f *flowBuilder) closeBoth() {
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq, Ack: f.srvSeq, Flags: packet.FlagFIN | packet.FlagACK})
	f.cliSeq++
	f.feed(packet.Segment{Src: srv, Dst: cli, Seq: f.srvSeq, Ack: f.cliSeq, Flags: packet.FlagFIN | packet.FlagACK})
	f.srvSeq++
}

func (f *flowBuilder) reset() {
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: f.cliSeq, Flags: packet.FlagRST})
}

func singleSession(t *testing.T, a *Assembler) Session {
	t.Helper()
	got := a.Sessions()
	if len(got) != 1 {
		t.Fatalf("got %d sessions, want 1", len(got))
	}
	return got[0]
}

func TestBasicConversation(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("GET / HTTP/1.1\r\n"))
	f.clientSend([]byte("Host: x\r\n\r\n"))
	f.serverSend([]byte("HTTP/1.1 200 OK\r\n"))
	f.closeBoth()

	s := singleSession(t, a)
	if s.Client != cli || s.Server != srv {
		t.Errorf("endpoints = %v / %v", s.Client, s.Server)
	}
	if want := "GET / HTTP/1.1\r\nHost: x\r\n\r\n"; string(s.ClientData) != want {
		t.Errorf("ClientData = %q, want %q", s.ClientData, want)
	}
	if want := "HTTP/1.1 200 OK\r\n"; string(s.ServerData) != want {
		t.Errorf("ServerData = %q, want %q", s.ServerData, want)
	}
	if !s.Complete || !s.Closed {
		t.Errorf("Complete=%v Closed=%v, want true/true", s.Complete, s.Closed)
	}
	if a.OpenConns() != 0 {
		t.Errorf("OpenConns = %d after close", a.OpenConns())
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	// Send segments 2 and 3 before 1.
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base + 5, Flags: packet.FlagACK, Payload: []byte("world")})
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base + 10, Flags: packet.FlagACK, Payload: []byte("!")})
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base, Flags: packet.FlagACK, Payload: []byte("hello")})
	f.cliSeq = base + 11
	f.reset()

	s := singleSession(t, a)
	if want := "helloworld!"; string(s.ClientData) != want {
		t.Errorf("ClientData = %q, want %q", s.ClientData, want)
	}
}

func TestRetransmissionIgnored(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base, Flags: packet.FlagACK, Payload: []byte("abcde")})
	// Exact retransmission.
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base, Flags: packet.FlagACK, Payload: []byte("abcde")})
	// Partial overlap carrying new bytes.
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: base + 3, Flags: packet.FlagACK, Payload: []byte("defgh")})
	f.cliSeq = base + 8
	f.reset()

	s := singleSession(t, a)
	if want := "abcdefgh"; string(s.ClientData) != want {
		t.Errorf("ClientData = %q, want %q", s.ClientData, want)
	}
}

func TestMidStreamPickup(t *testing.T) {
	// No handshake captured: assembler anchors at the first data segment.
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: 5555, Flags: packet.FlagACK, Payload: []byte("banner")})
	a.Flush()

	s := singleSession(t, a)
	if string(s.ClientData) != "banner" {
		t.Errorf("ClientData = %q", s.ClientData)
	}
	if s.Complete {
		t.Error("session without handshake marked Complete")
	}
	if s.Closed {
		t.Error("flushed session marked Closed")
	}
}

func TestRSTCloses(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("x"))
	f.reset()
	s := singleSession(t, a)
	if !s.Closed {
		t.Error("RST did not close session")
	}
}

func TestIdleTimeout(t *testing.T) {
	a := NewAssembler(Config{IdleTimeout: time.Minute})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("probe"))

	a.Advance(f.ts.Add(30 * time.Second))
	if len(a.Sessions()) != 0 {
		t.Fatal("session closed before idle timeout")
	}
	a.Advance(f.ts.Add(2 * time.Minute))
	s := singleSession(t, a)
	if string(s.ClientData) != "probe" {
		t.Errorf("ClientData = %q", s.ClientData)
	}
	if s.Closed {
		t.Error("idle-flushed session marked Closed")
	}
}

func TestStreamByteCap(t *testing.T) {
	a := NewAssembler(Config{MaxStreamBytes: 10})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend(bytes.Repeat([]byte("A"), 8))
	f.clientSend(bytes.Repeat([]byte("B"), 8))
	f.reset()
	s := singleSession(t, a)
	if len(s.ClientData) != 10 {
		t.Errorf("ClientData length = %d, want 10 (capped)", len(s.ClientData))
	}
	if want := "AAAAAAAABB"; string(s.ClientData) != want {
		t.Errorf("ClientData = %q, want %q", s.ClientData, want)
	}
}

func TestSynAckIdentifiesServer(t *testing.T) {
	// Even though packets from both directions arrive, the SYN sender is
	// the client.
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	f.serverSend([]byte("220 smtp ready\r\n"))
	f.clientSend([]byte("EHLO\r\n"))
	f.closeBoth()
	s := singleSession(t, a)
	if s.Client != cli {
		t.Errorf("Client = %v, want %v", s.Client, cli)
	}
	if string(s.ServerData) != "220 smtp ready\r\n" {
		t.Errorf("ServerData = %q", s.ServerData)
	}
}

func TestConcurrentConnections(t *testing.T) {
	a := NewAssembler(Config{})
	b := packet.NewBuilder(1)
	ts := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	const n = 50
	for i := 0; i < n; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr("192.0.2.1"), Port: uint16(40000 + i)}
		feed := func(seg packet.Segment) {
			frame, err := b.Build(seg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := packet.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			a.Feed(ts, p)
			ts = ts.Add(time.Millisecond)
		}
		feed(packet.Segment{Src: c, Dst: srv, Seq: 100, Flags: packet.FlagSYN})
		feed(packet.Segment{Src: srv, Dst: c, Seq: 900, Ack: 101, Flags: packet.FlagSYN | packet.FlagACK})
		feed(packet.Segment{Src: c, Dst: srv, Seq: 101, Ack: 901, Flags: packet.FlagACK, Payload: []byte{byte(i)}})
	}
	if a.OpenConns() != n {
		t.Fatalf("OpenConns = %d, want %d", a.OpenConns(), n)
	}
	a.Flush()
	got := a.Sessions()
	if len(got) != n {
		t.Fatalf("sessions = %d, want %d", len(got), n)
	}
	seen := map[uint16]bool{}
	for _, s := range got {
		if len(s.ClientData) != 1 {
			t.Errorf("session %v data = %v", s.Client, s.ClientData)
		}
		seen[s.Client.Port] = true
	}
	if len(seen) != n {
		t.Errorf("distinct client ports = %d, want %d", len(seen), n)
	}
}

func TestSessionsSortedByEnd(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("one"))
	f.reset()
	f2 := newFlow(t, a)
	f2.ts = f.ts.Add(time.Hour)
	f2.handshake()
	f2.clientSend([]byte("two"))
	f2.reset()
	got := a.Sessions()
	if len(got) != 2 {
		t.Fatalf("sessions = %d", len(got))
	}
	if !got[0].End.Before(got[1].End) {
		t.Error("sessions not sorted by End")
	}
}

// Property: random segment permutations of a stream reassemble identically
// (within the pending-buffer limit).
func TestShuffledSegmentsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	msg := []byte("The quick brown fox jumps over the lazy dog 0123456789")
	for trial := 0; trial < 25; trial++ {
		a := NewAssembler(Config{})
		b := packet.NewBuilder(int64(trial))
		ts := time.Unix(1e9, 0)
		feed := func(seg packet.Segment) {
			frame, err := b.Build(seg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := packet.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			a.Feed(ts, p)
		}
		feed(packet.Segment{Src: cli, Dst: srv, Seq: 0xffffff00, Flags: packet.FlagSYN}) // wraps seq space
		base := uint32(0xffffff01)

		// Chop into random segments and shuffle.
		type chunk struct {
			off int
			n   int
		}
		var chunks []chunk
		for off := 0; off < len(msg); {
			n := 1 + rng.Intn(9)
			if off+n > len(msg) {
				n = len(msg) - off
			}
			chunks = append(chunks, chunk{off, n})
			off += n
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		for _, c := range chunks {
			feed(packet.Segment{Src: cli, Dst: srv, Seq: base + uint32(c.off), Flags: packet.FlagACK, Payload: msg[c.off : c.off+c.n]})
		}
		feed(packet.Segment{Src: cli, Dst: srv, Seq: base + uint32(len(msg)), Flags: packet.FlagRST})

		s := singleSession(t, a)
		if !bytes.Equal(s.ClientData, msg) {
			t.Fatalf("trial %d: reassembled %q, want %q", trial, s.ClientData, msg)
		}
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	// SYN near the top of sequence space.
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: 0xfffffffe, Flags: packet.FlagSYN})
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: 0xffffffff, Flags: packet.FlagACK, Payload: []byte("ab")})
	f.feed(packet.Segment{Src: cli, Dst: srv, Seq: 1, Flags: packet.FlagACK, Payload: []byte("cd")})
	a.Flush()
	s := singleSession(t, a)
	if string(s.ClientData) != "abcd" {
		t.Errorf("ClientData = %q, want abcd", s.ClientData)
	}
}

// TestPendingReorderedWhenHeadJumps: drainPending drains pending in one
// pass, ordered by distance from the stream head, so that order must follow
// every move of the head. A mid-stream SYN can jump the head to where the
// order of two buffered segments rotates; a partially overlapping
// retransmit, after such a jump, can carry a segment across the int32 wrap.
// Either way the segment now behind the head must leave pending at the next
// drain, freeing its slot (MaxPending is 2) for a later future segment. An
// in-order segment can also carry a segment across the wrap while another
// waits, now contiguous, behind it in arrival order.
func TestPendingReorderedWhenHeadJumps(t *testing.T) {
	const half = 1 << 31
	for _, tc := range []struct {
		name    string
		head    uint32 // stream head the mid-stream SYN sets
		overlap string // then an in-order-straddling retransmit, if any
	}{
		// The cut point head+2^31 falls between the buffered segments: the
		// one at 1201 is now behind the head, the one at 1101 far ahead.
		{name: "syn rotates", head: 1151 + half},
		// The segment at 1101 sits 2^31−5 behind the new head; the overlap
		// delivers 10 bytes and carries it across the wrap, ahead again.
		{name: "overlap wraps", head: 1101 + half - 5, overlap: "ABCDEFGHIJK"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler(Config{MaxPending: 2})
			f := newFlow(t, a)
			f.handshake() // client stream head at 1001
			send := func(seq uint32, data string) {
				f.feed(packet.Segment{Src: cli, Dst: srv, Seq: seq, Flags: packet.FlagACK, Payload: []byte(data)})
			}
			send(1101, "p")
			send(1201, "q")
			f.feed(packet.Segment{Src: cli, Dst: srv, Seq: tc.head - 1, Flags: packet.FlagSYN})
			head := tc.head
			want := ""
			if tc.overlap != "" {
				send(head-1, tc.overlap)
				head += uint32(len(tc.overlap) - 1)
				want = tc.overlap[1:]
			}
			send(head, "Z")
			send(head+11, "f")
			send(head+1, "0123456789")
			f.cliSeq = head + 12
			f.reset()
			s := singleSession(t, a)
			if want += "Z0123456789f"; string(s.ClientData) != want || s.DroppedBytes != 0 {
				t.Errorf("ClientData %q, DroppedBytes %d; want %q, 0", s.ClientData, s.DroppedBytes, want)
			}
		})
	}
	t.Run("in-order wraps", func(t *testing.T) {
		a := NewAssembler(Config{MaxPending: 2})
		f := newFlow(t, a)
		f.handshake() // client stream head at 1001
		send := func(seq uint32, data string) {
			f.feed(packet.Segment{Src: cli, Dst: srv, Seq: seq, Flags: packet.FlagACK, Payload: []byte(data)})
		}
		send(1101, "p")
		// The segment at 1101 sits 2^31−3 behind the new head.
		head := uint32(1101 + half - 3)
		f.feed(packet.Segment{Src: cli, Dst: srv, Seq: head - 1, Flags: packet.FlagSYN})
		send(head+10, "Y")
		// Ten in-order bytes carry the segment at 1101 across the wrap, far
		// ahead, and make Y contiguous.
		send(head, "0123456789")
		f.cliSeq = head + 11
		f.reset()
		s := singleSession(t, a)
		if want := "0123456789Y"; string(s.ClientData) != want || s.DroppedBytes != 0 {
			t.Errorf("ClientData %q, DroppedBytes %d; want %q, 0", s.ClientData, s.DroppedBytes, want)
		}
	})
}

func BenchmarkFeed(b *testing.B) {
	bld := packet.NewBuilder(1)
	frames := make([][]byte, 3)
	var err error
	frames[0], err = bld.Build(packet.Segment{Src: cli, Dst: srv, Seq: 100, Flags: packet.FlagSYN})
	if err != nil {
		b.Fatal(err)
	}
	frames[1], _ = bld.Build(packet.Segment{Src: cli, Dst: srv, Seq: 101, Flags: packet.FlagACK, Payload: bytes.Repeat([]byte("x"), 256)})
	frames[2], _ = bld.Build(packet.Segment{Src: cli, Dst: srv, Seq: 357, Flags: packet.FlagRST})
	pkts := make([]*packet.Packet, len(frames))
	for i, f := range frames {
		p, err := packet.Decode(f)
		if err != nil {
			b.Fatal(err)
		}
		pkts[i] = p
	}
	ts := time.Unix(0, 0)
	a := NewAssembler(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			a.Feed(ts, p)
		}
		a.Sessions()
	}
}

func TestDroppedBytesAccounting(t *testing.T) {
	// Stream cap: bytes past MaxStreamBytes are counted, not stored.
	a := NewAssembler(Config{MaxStreamBytes: 10})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend(bytes.Repeat([]byte("A"), 25))
	f.reset()
	s := singleSession(t, a)
	if s.DroppedBytes != 15 {
		t.Errorf("DroppedBytes = %d, want 15", s.DroppedBytes)
	}

	// Pending-buffer overflow: out-of-order segments beyond MaxPending are
	// dropped and counted.
	a2 := NewAssembler(Config{MaxPending: 2})
	f2 := newFlow(t, a2)
	f2.handshake()
	base := f2.cliSeq
	// Four future segments; only two buffer slots.
	for i := 1; i <= 4; i++ {
		f2.feed(packet.Segment{Src: cli, Dst: srv, Seq: base + uint32(10*i), Flags: packet.FlagACK, Payload: []byte("xxxxx")})
	}
	f2.reset()
	s2 := singleSession(t, a2)
	if s2.DroppedBytes != 10 {
		t.Errorf("pending-overflow DroppedBytes = %d, want 10 (two 5-byte segments)", s2.DroppedBytes)
	}
}

// TestDrainIncremental drives two conversations: one FIN-closed early, one
// left idle. Drain must deliver the closed one immediately, keep the idle
// one assembling until the horizon passes it, and leave nothing behind.
func TestDrainIncremental(t *testing.T) {
	a := NewAssembler(Config{IdleTimeout: time.Minute})
	f := newFlow(t, a)
	f.handshake()
	f.clientSend([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.closeBoth()

	// A second, idle conversation from a different client port.
	idleCli := packet.Endpoint{Addr: cli.Addr, Port: 50001}
	b := packet.NewBuilder(7)
	feedAt := func(ts time.Time, seg packet.Segment) {
		t.Helper()
		frame, err := b.Build(seg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := packet.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		a.Feed(ts, p)
	}
	idleStart := f.ts
	feedAt(idleStart, packet.Segment{Src: idleCli, Dst: srv, Seq: 500, Flags: packet.FlagSYN})
	feedAt(idleStart, packet.Segment{Src: srv, Dst: idleCli, Seq: 900, Ack: 501, Flags: packet.FlagSYN | packet.FlagACK})
	feedAt(idleStart, packet.Segment{Src: idleCli, Dst: srv, Seq: 501, Ack: 901, Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("partial")})

	got := a.Drain(idleStart)
	if len(got) != 1 {
		t.Fatalf("first drain = %d sessions, want 1 (the closed one)", len(got))
	}
	if !got[0].Closed || string(got[0].ClientData) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("drained wrong session: %+v", got[0])
	}
	if a.OpenConns() != 1 {
		t.Fatalf("open conns = %d, want the idle one", a.OpenConns())
	}
	// Nothing new: drain is empty, idle conversation still assembling.
	if got := a.Drain(idleStart.Add(30 * time.Second)); len(got) != 0 {
		t.Fatalf("premature drain = %d sessions", len(got))
	}
	// Past the idle horizon the second conversation flushes, un-Closed.
	got = a.Drain(idleStart.Add(2 * time.Minute))
	if len(got) != 1 {
		t.Fatalf("final drain = %d sessions, want 1", len(got))
	}
	if got[0].Closed || string(got[0].ClientData) != "partial" {
		t.Fatalf("idle session wrong: %+v", got[0])
	}
	if a.OpenConns() != 0 {
		t.Fatalf("open conns = %d after full drain", a.OpenConns())
	}
}
