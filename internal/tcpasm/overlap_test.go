package tcpasm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
	"repro/internal/packet"
)

// sendClientAt injects a client data segment at an explicit sequence offset
// relative to the post-handshake base, without advancing the scripted cursor
// — the raw material of overlap games.
func (f *flowBuilder) sendClientAt(base uint32, off int, data []byte) {
	f.feed(packet.Segment{
		Src: cli, Dst: srv, Seq: base + uint32(off), Ack: f.srvSeq,
		Flags: packet.FlagPSH | packet.FlagACK, Payload: data,
	})
}

// TestOverlapConflictFirstWins documents the silent-wrong-verdict the
// assembler produced before conflict detection existed: a retransmission of
// the same sequence range with different bytes was dropped without a trace,
// so the retained stream was whichever copy arrived first and nothing marked
// the session as contested. The bytes still resolve first-wins by default —
// what changed is that the session now loudly carries the conflict.
func TestOverlapConflictFirstWins(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	f.sendClientAt(base, 0, []byte("GET /index.html HTTP"))
	f.sendClientAt(base, 0, []byte("GET /evil/payload.sh"))
	f.cliSeq += 20
	f.closeBoth()

	s := singleSession(t, a)
	if got, want := string(s.ClientData), "GET /index.html HTTP"; got != want {
		t.Errorf("ClientData = %q, want first copy %q", got, want)
	}
	if !s.Ambiguous {
		t.Error("Ambiguous = false; the pre-fix assembler kept this silent")
	}
	if s.OverlapConflicts != 1 {
		t.Errorf("OverlapConflicts = %d, want 1", s.OverlapConflicts)
	}
}

// TestOverlapConflictLastWins: same wire bytes, the other resolution. The
// retained stream flips to the retransmitted copy, and the session is
// flagged just the same — the policy chooses bytes, never silence.
func TestOverlapConflictLastWins(t *testing.T) {
	a := NewAssembler(Config{OverlapPolicy: OverlapLastWins})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	f.sendClientAt(base, 0, []byte("GET /index.html HTTP"))
	f.sendClientAt(base, 0, []byte("GET /evil/payload.sh"))
	f.cliSeq += 20
	f.closeBoth()

	s := singleSession(t, a)
	if got, want := string(s.ClientData), "GET /evil/payload.sh"; got != want {
		t.Errorf("ClientData = %q, want retransmitted copy %q", got, want)
	}
	if !s.Ambiguous || s.OverlapConflicts != 1 {
		t.Errorf("Ambiguous=%v OverlapConflicts=%d, want true/1", s.Ambiguous, s.OverlapConflicts)
	}
}

// TestOverlapAgreeingRetransmit: an honest duplicate (same bytes, same
// range) must not taint the session.
func TestOverlapAgreeingRetransmit(t *testing.T) {
	for _, policy := range []OverlapPolicy{OverlapFirstWins, OverlapLastWins} {
		a := NewAssembler(Config{OverlapPolicy: policy})
		f := newFlow(t, a)
		f.handshake()
		base := f.cliSeq
		f.sendClientAt(base, 0, []byte("GET / HTTP/1.1\r\n"))
		f.sendClientAt(base, 0, []byte("GET / HTTP/1.1\r\n"))
		f.cliSeq += 16
		f.closeBoth()

		s := singleSession(t, a)
		if got, want := string(s.ClientData), "GET / HTTP/1.1\r\n"; got != want {
			t.Errorf("%v: ClientData = %q, want %q", policy, got, want)
		}
		if s.Ambiguous || s.OverlapConflicts != 0 {
			t.Errorf("%v: Ambiguous=%v OverlapConflicts=%d for agreeing duplicate",
				policy, s.Ambiguous, s.OverlapConflicts)
		}
	}
}

// TestOverlapConflictingExtension: a retransmit that disagrees on its
// overlapping prefix but carries a genuinely new suffix must flag the
// conflict and still deliver the suffix.
func TestOverlapConflictingExtension(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	f.sendClientAt(base, 0, []byte("AAAA"))
	f.sendClientAt(base, 0, []byte("BBBBCCCC")) // prefix disagrees, suffix is new
	f.cliSeq += 8
	f.closeBoth()

	s := singleSession(t, a)
	if got, want := string(s.ClientData), "AAAACCCC"; got != want {
		t.Errorf("ClientData = %q, want %q", got, want)
	}
	if !s.Ambiguous || s.OverlapConflicts != 1 {
		t.Errorf("Ambiguous=%v OverlapConflicts=%d, want true/1", s.Ambiguous, s.OverlapConflicts)
	}
}

// TestOverlapConflictPendingDrain drives the conflict through the
// out-of-order pending queue: a buffered future segment is contradicted by
// the in-order bytes that later cover its range.
func TestOverlapConflictPendingDrain(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	f.sendClientAt(base, 4, []byte("XXXX"))     // buffered: hole at [0,4)
	f.sendClientAt(base, 0, []byte("AAAAYYYY")) // fills the hole and contradicts the pending copy
	f.cliSeq += 8
	f.closeBoth()

	s := singleSession(t, a)
	if got, want := string(s.ClientData), "AAAAYYYY"; got != want {
		t.Errorf("ClientData = %q, want %q", got, want)
	}
	if !s.Ambiguous || s.OverlapConflicts != 1 {
		t.Errorf("Ambiguous=%v OverlapConflicts=%d, want true/1", s.Ambiguous, s.OverlapConflicts)
	}
}

// TestOverlapSuffixDrainsPending: a retransmit that overlaps the head and
// extends it up to a buffered segment must drain that segment too; the
// stream ends whole, with nothing dropped.
func TestOverlapSuffixDrainsPending(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	base := f.cliSeq
	data := []byte("0123456789abcdefghijABCDEFGHIJ")
	f.sendClientAt(base, 0, data[:10])  // in order: head at 10
	f.sendClientAt(base, 20, data[20:]) // buffered: hole at [10,20)
	f.sendClientAt(base, 5, data[5:20]) // overlaps [5,10), fills the hole
	f.cliSeq += uint32(len(data))
	f.closeBoth()

	s := singleSession(t, a)
	if !bytes.Equal(s.ClientData, data) || s.DroppedBytes != 0 || s.Ambiguous {
		t.Errorf("ClientData = %q (dropped %d, ambiguous %v), want %q whole",
			s.ClientData, s.DroppedBytes, s.Ambiguous, data)
	}
}

// TestOverlapConflictBothDirections: per-direction counts sum into the
// session total.
func TestOverlapConflictBothDirections(t *testing.T) {
	a := NewAssembler(Config{})
	f := newFlow(t, a)
	f.handshake()
	cbase, sbase := f.cliSeq, f.srvSeq
	f.sendClientAt(cbase, 0, []byte("req-one!"))
	f.sendClientAt(cbase, 0, []byte("req-two!"))
	f.cliSeq += 8
	f.feed(packet.Segment{Src: srv, Dst: cli, Seq: sbase, Ack: f.cliSeq,
		Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("resp-one")})
	f.feed(packet.Segment{Src: srv, Dst: cli, Seq: sbase, Ack: f.cliSeq,
		Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("resp-two")})
	f.srvSeq += 8
	f.closeBoth()

	s := singleSession(t, a)
	if s.OverlapConflicts != 2 || !s.Ambiguous {
		t.Errorf("OverlapConflicts=%d Ambiguous=%v, want 2/true", s.OverlapConflicts, s.Ambiguous)
	}
}

func TestParseOverlapPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OverlapPolicy
	}{
		{"", OverlapFirstWins},
		{"first-wins", OverlapFirstWins},
		{"first", OverlapFirstWins},
		{"last-wins", OverlapLastWins},
		{"last", OverlapLastWins},
	} {
		got, err := ParseOverlapPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOverlapPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if rt, err := ParseOverlapPolicy(got.String()); err != nil || rt != got {
			t.Errorf("round-trip of %v failed: %v, %v", got, rt, err)
		}
	}
	if _, err := ParseOverlapPolicy("both-wins"); err == nil {
		t.Error("ParseOverlapPolicy accepted garbage")
	}
}

// overlapSchedule renders a deterministic capture where one flow plays
// conflicting-overlap games and a second behaves; shared by the parity test
// and the fuzz seeds.
func overlapSchedule(t testing.TB, policySeed int64) []feedEvent {
	t.Helper()
	bld := packet.NewBuilder(policySeed)
	ts := time.Date(2022, 6, 3, 12, 0, 0, 0, time.UTC)
	var events []feedEvent
	emit := func(seg packet.Segment) {
		frame, err := bld.Build(seg)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, feedEvent{ts: ts, frame: frame})
		ts = ts.Add(7 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 10+i)), Port: uint16(41000 + i)}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.5"), Port: 8080}
		cseq := uint32(1000 * (i + 1))
		sseq := uint32(9000 * (i + 1))
		emit(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN})
		emit(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK})
		emit(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK})
		base := cseq + 1
		emit(packet.Segment{Src: c, Dst: s, Seq: base, Ack: sseq + 1,
			Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("GET /innocuous/path!")})
		if i == 0 { // flow 0 retransmits with conflicting bytes
			emit(packet.Segment{Src: c, Dst: s, Seq: base, Ack: sseq + 1,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("GET /malicious/pay!!")})
		}
		emit(packet.Segment{Src: c, Dst: s, Seq: base + 20, Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK})
		emit(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: base + 21, Flags: packet.FlagFIN | packet.FlagACK})
	}
	return events
}

// TestOverlapConflictShardedParity: the Ambiguous flag and conflict counts
// must survive the flow-sharded front-end byte-identically — ambiguity is a
// property of the per-flow byte stream, not of the schedule.
func TestOverlapConflictShardedParity(t *testing.T) {
	events := overlapSchedule(t, 11)
	cfg := Config{IdleTimeout: 2 * time.Second}
	want := serialSessions(t, cfg, events)
	ambiguous := 0
	for _, s := range want {
		if s.Ambiguous {
			ambiguous++
		}
	}
	if ambiguous != 1 {
		t.Fatalf("serial reference flagged %d sessions, want 1", ambiguous)
	}
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := cfg
			cfg.Shards = shards
			s, c := newCollecting(cfg, 1)
			feedSharded(t, s.Feeder(0), events)
			s.Feeder(0).Close()
			diffSessions(t, c.wait(s), want)
		})
	}
}

// fuzzOverlapSeeds are the committed FuzzReassemblyOverlap starting
// population: conflicting full retransmit, agreeing duplicate,
// conflicting extension, out-of-order contradiction, tiny-segment sweep.
func fuzzOverlapSeeds() [][]byte {
	return [][]byte{
		{0, 20, 1, 0, 20, 0},
		{0, 20, 1, 0, 20, 1},
		{0, 4, 1, 0, 12, 0},
		{8, 8, 1, 0, 16, 0},
		{0, 1, 1, 1, 1, 0, 2, 1, 1, 3, 1, 0, 4, 1, 1},
		{4, 9, 0, 0, 30, 0, 17, 6, 0},
	}
}

// FuzzReassemblyOverlap throws random segment schedules — including
// conflicting overlaps — at the assembler and cross-checks the serial and
// sharded paths: sessions (data, conflict counts, ambiguity) must be
// byte-identical for every schedule, and a conflict-free schedule must never
// be flagged.
func FuzzReassemblyOverlap(f *testing.F) {
	for _, seed := range fuzzOverlapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		const streamLen = 40
		truth := make([]byte, streamLen)
		for i := range truth {
			truth[i] = byte('a' + i%26)
		}
		bld := packet.NewBuilder(1)
		ts := time.Date(2022, 6, 3, 12, 0, 0, 0, time.UTC)
		var events []feedEvent
		emit := func(seg packet.Segment) {
			frame, err := bld.Build(seg)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, feedEvent{ts: ts, frame: frame})
			ts = ts.Add(3 * time.Millisecond)
		}
		c := packet.Endpoint{Addr: packet.MustAddr("192.0.2.77"), Port: 42424}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.5"), Port: 8080}
		const cseq, sseq = 5000, 7000
		emit(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN})
		emit(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK})
		emit(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK})
		// Each 3-byte opcode is one data segment: offset, length, and whether
		// its bytes contradict the true stream.
		for len(data) >= 3 {
			off := int(data[0]) % streamLen
			n := 1 + int(data[1])%16
			if off+n > streamLen {
				n = streamLen - off
			}
			payload := append([]byte(nil), truth[off:off+n]...)
			if data[2]&1 != 0 {
				for i := range payload {
					payload[i] ^= 0x20
				}
			}
			emit(packet.Segment{Src: c, Dst: s, Seq: cseq + 1 + uint32(off), Ack: sseq + 1,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: payload})
			data = data[3:]
		}
		emit(packet.Segment{Src: c, Dst: s, Seq: cseq + 1 + streamLen, Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK})
		emit(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: cseq + 2 + streamLen, Flags: packet.FlagFIN | packet.FlagACK})

		for _, policy := range []OverlapPolicy{OverlapFirstWins, OverlapLastWins} {
			cfg := Config{IdleTimeout: time.Minute, OverlapPolicy: policy}
			want := serialSessions(t, cfg, events)
			for _, s := range want {
				if s.Ambiguous != (s.OverlapConflicts > 0) {
					t.Fatalf("%v: Ambiguous=%v with OverlapConflicts=%d", policy, s.Ambiguous, s.OverlapConflicts)
				}
			}
			for _, shards := range []int{1, 3} {
				scfg := cfg
				scfg.Shards = shards
				sh, c := newCollecting(scfg, 1)
				feedSharded(t, sh.Feeder(0), events)
				sh.Feeder(0).Close()
				diffSessions(t, c.wait(sh), want)
			}
		}
	})
}

// TestRegenFuzzReassemblyOverlapCorpus rewrites the committed seed corpus
// when REGEN_FUZZ_CORPUS is set, keeping files and in-code seeds in sync.
func TestRegenFuzzReassemblyOverlapCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite the committed corpus")
	}
	fuzzcorpus.Write(t, "FuzzReassemblyOverlap", fuzzOverlapSeeds())
}
