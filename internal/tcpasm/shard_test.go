package tcpasm

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

// feedEvent is one captured frame with its timestamp.
type feedEvent struct {
	ts    time.Time
	frame []byte
}

// genTraffic builds a deterministic interleaved capture: nFlows scripted
// conversations (handshakes, bidirectional data, out-of-order chunks,
// FIN/RST/abandoned endings) merged onto one non-decreasing timeline. With
// many active flows and tens of milliseconds between events, revisit gaps
// routinely exceed the 2s IdleTimeout the parity tests configure, so the
// Feed-level idle split is exercised organically.
func genTraffic(t testing.TB, seed int64, nFlows int) []feedEvent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bld := packet.NewBuilder(seed)

	type flowScript struct {
		segs []packet.Segment
		next int
	}
	flows := make([]*flowScript, nFlows)
	for i := range flows {
		c := packet.Endpoint{
			Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 1+rng.Intn(250))),
			Port: uint16(40000 + i),
		}
		s := packet.Endpoint{
			Addr: packet.MustAddr(fmt.Sprintf("198.51.100.%d", 1+rng.Intn(250))),
			Port: []uint16{23, 80, 443, 8080}[rng.Intn(4)],
		}
		cseq := rng.Uint32()
		sseq := rng.Uint32()
		fs := &flowScript{}
		fs.segs = append(fs.segs,
			packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN},
			packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK},
			packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK},
		)
		cseq, sseq = cseq+1, sseq+1

		// Client payload in chunks, occasionally shuffled out of order.
		payload := bytes.Repeat([]byte{byte('a' + i%26)}, 30+rng.Intn(400))
		var chunks []packet.Segment
		for off := 0; off < len(payload); {
			n := 1 + rng.Intn(60)
			if off+n > len(payload) {
				n = len(payload) - off
			}
			chunks = append(chunks, packet.Segment{
				Src: c, Dst: s, Seq: cseq + uint32(off), Ack: sseq,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: payload[off : off+n],
			})
			off += n
		}
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(chunks), func(a, b int) { chunks[a], chunks[b] = chunks[b], chunks[a] })
		}
		fs.segs = append(fs.segs, chunks...)
		cseq += uint32(len(payload))
		if rng.Intn(2) == 0 {
			resp := []byte("ACK\r\n")
			fs.segs = append(fs.segs, packet.Segment{
				Src: s, Dst: c, Seq: sseq, Ack: cseq,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: resp,
			})
			sseq += uint32(len(resp))
		}
		switch rng.Intn(3) {
		case 0: // clean close
			fs.segs = append(fs.segs,
				packet.Segment{Src: c, Dst: s, Seq: cseq, Ack: sseq, Flags: packet.FlagFIN | packet.FlagACK},
				packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagFIN | packet.FlagACK},
			)
		case 1: // abort
			fs.segs = append(fs.segs, packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagRST})
		default: // abandoned: idles out or is flushed at end of capture
		}
		flows[i] = fs
	}

	// Merge onto one timeline: pick a random unfinished flow per step.
	var events []feedEvent
	ts := time.Date(2021, 5, 10, 8, 0, 0, 0, time.UTC)
	live := make([]int, 0, nFlows)
	for i := range flows {
		live = append(live, i)
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		fs := flows[live[k]]
		frame, err := bld.Build(fs.segs[fs.next])
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, feedEvent{ts: ts, frame: frame})
		ts = ts.Add(time.Duration(20+rng.Intn(120)) * time.Millisecond)
		fs.next++
		if fs.next == len(fs.segs) {
			live = append(live[:k], live[k+1:]...)
		}
	}
	return events
}

// serialSessions is the reference: one Assembler, the serial scan cadence.
func serialSessions(t testing.TB, cfg Config, events []feedEvent) []Session {
	t.Helper()
	a := NewAssembler(cfg)
	for i, ev := range events {
		p, err := packet.Decode(ev.frame)
		if err != nil {
			t.Fatal(err)
		}
		a.Feed(ev.ts, p)
		if (i+1)%advanceEvery == 0 {
			a.Advance(ev.ts)
		}
	}
	a.Flush()
	return a.Sessions()
}

// feedSharded decodes events into the feeder's item and routes them
// through f.
func feedSharded(t testing.TB, f *Feeder, events []feedEvent) {
	t.Helper()
	for _, ev := range events {
		it := f.Get()
		it.TS = ev.ts
		it.Buf = append(it.Buf[:0], ev.frame...)
		if err := packet.DecodeInto(&it.Pkt, it.Buf); err != nil {
			t.Error(err)
			continue
		}
		f.Feed(it)
	}
}

func diffSessions(t *testing.T, got, want []Session) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sessions, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("session %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestShardedParity: for every shard count and seed, the sharded batch scan
// must emit byte-identical sessions in identical order to the serial path.
func TestShardedParity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		events := genTraffic(t, seed, 40)
		cfg := Config{IdleTimeout: 2 * time.Second}
		want := serialSessions(t, cfg, events)
		if len(want) < 40 {
			t.Fatalf("seed %d: weak test input, only %d sessions", seed, len(want))
		}
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("seed%d_shards%d", seed, shards), func(t *testing.T) {
				cfg := cfg
				cfg.Shards = shards
				s := NewSharded(cfg, 1)
				feedSharded(t, s.Feeder(0), events)
				s.Feeder(0).Close()
				diffSessions(t, s.Wait(), want)
			})
		}
	}
}

// TestShardedParityMultiFeeder splits the capture into time-ordered chunks
// fed concurrently by one feeder each, mimicking the multi-segment pcap
// fan-out. Flows spanning chunk boundaries must still reassemble exactly as
// in the serial scan.
func TestShardedParityMultiFeeder(t *testing.T) {
	events := genTraffic(t, 7, 48)
	cfg := Config{IdleTimeout: 2 * time.Second, Shards: 4}
	want := serialSessions(t, cfg, events)

	for _, feeders := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("feeders%d", feeders), func(t *testing.T) {
			s := NewSharded(cfg, feeders)
			chunk := (len(events) + feeders - 1) / feeders
			var wg sync.WaitGroup
			for i := 0; i < feeders; i++ {
				lo := i * chunk
				hi := lo + chunk
				if hi > len(events) {
					hi = len(events)
				}
				wg.Add(1)
				go func(f *Feeder, evs []feedEvent) {
					defer wg.Done()
					feedSharded(t, f, evs)
					f.Close()
				}(s.Feeder(i), events[lo:hi])
			}
			wg.Wait()
			diffSessions(t, s.Wait(), want)
		})
	}
}

// TestShardedStreamingBarriers interleaves Drain and FlushSessions with
// feeding — the ingest pipeline's cadence — and checks every batch against
// the serial assembler draining at the same points.
func TestShardedStreamingBarriers(t *testing.T) {
	events := genTraffic(t, 11, 32)
	cfg := Config{IdleTimeout: 2 * time.Second, Shards: 3}

	ref := NewAssembler(cfg)
	s := NewSharded(cfg, 1)
	f := s.Feeder(0)
	const batch = 150
	for lo := 0; lo < len(events); lo += batch {
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		for _, ev := range events[lo:hi] {
			p, err := packet.Decode(ev.frame)
			if err != nil {
				t.Fatal(err)
			}
			ref.Feed(ev.ts, p)
		}
		feedSharded(t, f, events[lo:hi])
		now := events[hi-1].ts
		want := ref.Drain(now)
		got := s.Drain(now)
		diffSessions(t, got, want)
	}
	ref.Flush()
	diffSessions(t, s.FlushSessions(), ref.Sessions())
	f.Close()
	if leftover := s.Wait(); len(leftover) != 0 {
		t.Fatalf("sessions after final flush: %d", len(leftover))
	}
}

// TestShardedStatsAndRace hammers the sharded assembler from several feeders
// while polling the monitoring surface from another goroutine; run with
// -race this doubles as the concurrency soundness check.
func TestShardedStatsAndRace(t *testing.T) {
	events := genTraffic(t, 5, 64)
	cfg := Config{IdleTimeout: 2 * time.Second, Shards: 4}
	s := NewSharded(cfg, 4)

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range s.ShardStats() {
				if st.Queued < 0 {
					t.Errorf("shard %d: negative queue depth %d", st.Shard, st.Queued)
					return
				}
			}
			_ = s.OpenConns()
		}
	}()

	var wg sync.WaitGroup
	chunk := (len(events) + 3) / 4
	for i := 0; i < 4; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(events) {
			hi = len(events)
		}
		wg.Add(1)
		go func(f *Feeder, evs []feedEvent) {
			defer wg.Done()
			feedSharded(t, f, evs)
			f.Close()
		}(s.Feeder(i), events[lo:hi])
	}
	wg.Wait()
	got := s.Wait()
	close(stop)
	poller.Wait()

	var applied uint64
	for _, st := range s.ShardStats() {
		if st.Queued != 0 || st.OpenConns != 0 {
			t.Errorf("shard %d not drained: %+v", st.Shard, st)
		}
		applied += st.Packets
	}
	if applied != uint64(len(events)) {
		t.Errorf("applied %d packets, want %d", applied, len(events))
	}
	if len(got) == 0 {
		t.Error("no sessions out")
	}
}

// TestShardOfStable pins the flow→shard mapping properties: the raw hash
// sends both directions of a flow, IPv4 or IPv6, to the same shard, and
// flows use the full shard space.
func TestShardOfStable(t *testing.T) {
	servers := []packet.Endpoint{
		{Addr: netip.MustParseAddr("203.0.113.9"), Port: 80},
		{Addr: netip.MustParseAddr("2001:db8::9"), Port: 443},
	}
	for _, srv := range servers {
		used := make(map[int]bool)
		for i := 0; i < 256; i++ {
			addr := fmt.Sprintf("10.0.%d.%d", i/16, i%16+1)
			if srv.Addr.Is6() {
				addr = fmt.Sprintf("2001:db8:%x::%x", i/16, i%16+1)
			}
			c := packet.Endpoint{Addr: netip.MustParseAddr(addr), Port: uint16(1024 + i)}
			a, b := shardOf(packet.Flow{Src: c, Dst: srv}, 8), shardOf(packet.Flow{Src: srv, Dst: c}, 8)
			if a != b {
				t.Fatalf("flow %v: directions map to shards %d and %d", c, a, b)
			}
			used[a] = true
		}
		if len(used) != 8 {
			t.Errorf("256 flows to %v hit only %d of 8 shards", srv, len(used))
		}
	}
}

// TestShardOfBalance bounds the load imbalance over seeded random flows —
// random clients against a few telescope addresses and ports, a quarter of
// them IPv6 — at max/mean ≤ 1.05 per shard width.
func TestShardOfBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ports := []uint16{22, 80, 443, 8080}
	flows := make([]packet.Flow, 1<<16)
	for i := range flows {
		var c, s packet.Endpoint
		if rng.Intn(4) == 0 {
			var a [16]byte
			rng.Read(a[:])
			a[0], a[1] = 0x20, 0x01
			c.Addr = netip.AddrFrom16(a)
			s.Addr = netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", rng.Intn(16)))
		} else {
			c.Addr = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			s.Addr = netip.MustParseAddr(fmt.Sprintf("198.51.100.%d", rng.Intn(16)))
		}
		c.Port = uint16(1024 + rng.Intn(64512))
		s.Port = ports[rng.Intn(len(ports))]
		flows[i] = packet.Flow{Src: c, Dst: s}
	}
	for _, n := range []int{2, 3, 8} {
		counts := make([]int, n)
		for _, f := range flows {
			counts[shardOf(f, n)]++
		}
		max := slices.Max(counts)
		mean := float64(len(flows)) / float64(n)
		if r := float64(max) / mean; r > 1.05 {
			t.Errorf("n=%d: max/mean %.3f > 1.05 (counts %v)", n, r, counts)
		} else {
			t.Logf("n=%d: max/mean %.3f", n, r)
		}
	}
}

// BenchmarkAssemblerFeed compares the serial assembler against the sharded
// front-end over the same pre-built capture.
func BenchmarkAssemblerFeed(b *testing.B) {
	events := genTraffic(b, 42, 64)
	var total int64
	for _, ev := range events {
		total += int64(len(ev.frame))
	}

	feedAll := func(b *testing.B, a *Assembler) {
		var p packet.Packet
		for _, ev := range events {
			if err := packet.DecodeInto(&p, ev.frame); err != nil {
				b.Fatal(err)
			}
			a.Feed(ev.ts, &p)
		}
		a.Flush()
		if len(a.Sessions()) == 0 {
			b.Fatal("no sessions")
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			feedAll(b, NewAssembler(Config{}))
		}
	})
	// One Assembler across ops: its table, free list and session queue are
	// warm, so what remains per op is the steady-state cost of a capture.
	b.Run("reuse", func(b *testing.B) {
		a := NewAssembler(Config{})
		feedAll(b, a)
		b.SetBytes(total)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feedAll(b, a)
		}
	})
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("sharded%d", shards), func(b *testing.B) {
			b.SetBytes(total)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewSharded(Config{Shards: shards}, 1)
				f := s.Feeder(0)
				for _, ev := range events {
					// The feeder reads only Buf and TS; the shard decodes.
					it := f.Get()
					it.TS = ev.ts
					it.Buf = append(it.Buf[:0], ev.frame...)
					f.Feed(it)
				}
				f.Close()
				if len(s.Wait()) == 0 {
					b.Fatal("no sessions")
				}
			}
		})
	}
}

// edgeFlow scripts one connection for the edge-case parity tests below:
// handshake, then the given data segments, with per-segment time offsets so
// a test can place an idle gap mid-flow.
type edgeStep struct {
	seg packet.Segment
	dt  time.Duration // delay before this segment
}

// buildEdgeEvents merges per-flow scripts onto one non-decreasing timeline,
// emitting each flow's next step round-robin so connections interleave (and
// therefore spread across shards) the way a real capture does.
func buildEdgeEvents(t *testing.T, bld *packet.Builder, flows [][]edgeStep) []feedEvent {
	t.Helper()
	ts := time.Date(2021, 5, 10, 9, 0, 0, 0, time.UTC)
	next := make([]int, len(flows))
	var events []feedEvent
	for {
		emitted := false
		for i, fs := range flows {
			if next[i] >= len(fs) {
				continue
			}
			st := fs[next[i]]
			next[i]++
			emitted = true
			ts = ts.Add(st.dt)
			frame, err := bld.Build(st.seg)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, feedEvent{ts: ts, frame: frame})
		}
		if !emitted {
			return events
		}
	}
}

// edgeParity checks sharded output against the serial assembler for several
// shard counts and returns the serial sessions for content assertions.
func edgeParity(t *testing.T, cfg Config, events []feedEvent) []Session {
	t.Helper()
	want := serialSessions(t, cfg, events)
	for _, shards := range []int{1, 2, 4, 8} {
		scfg := cfg
		scfg.Shards = shards
		s := NewSharded(scfg, 1)
		feedSharded(t, s.Feeder(0), events)
		s.Feeder(0).Close()
		got := s.Wait()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: got %d sessions, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("shards=%d: session %d differs:\n got %+v\nwant %+v", shards, i, got[i], want[i])
			}
		}
	}
	return want
}

// TestShardedZeroLengthPayloads: pure ACKs, zero-payload PSH frames, and
// keepalive-style probes carry no stream bytes; they must not perturb
// reassembly on either path, and the sharded output must stay identical.
func TestShardedZeroLengthPayloads(t *testing.T) {
	bld := packet.NewBuilder(21)
	var flows [][]edgeStep
	for i := 0; i < 6; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 10+i)), Port: uint16(41000 + i)}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.7"), Port: 23}
		cseq, sseq := uint32(1000*i+1), uint32(7777*(i+1))
		data := bytes.Repeat([]byte{byte('a' + i)}, 64)
		step := func(seg packet.Segment) edgeStep { return edgeStep{seg: seg, dt: 15 * time.Millisecond} }
		flows = append(flows, []edgeStep{
			step(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK}),
			// Zero-length PSH|ACK before any data.
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagPSH | packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagPSH | packet.FlagACK, Payload: data[:32]}),
			// Pure ACK from the server mid-stream.
			step(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: cseq + 33, Flags: packet.FlagACK}),
			// Keepalive-style zero-length probe one byte below the next seq.
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 32, Ack: sseq + 1, Flags: packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 33, Ack: sseq + 1, Flags: packet.FlagPSH | packet.FlagACK, Payload: data[32:]}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 65, Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: cseq + 66, Flags: packet.FlagFIN | packet.FlagACK}),
		})
	}
	events := buildEdgeEvents(t, bld, flows)
	sessions := edgeParity(t, Config{IdleTimeout: 2 * time.Second}, events)
	if len(sessions) != 6 {
		t.Fatalf("got %d sessions, want 6", len(sessions))
	}
	for _, ses := range sessions {
		if len(ses.ClientData) != 64 {
			t.Fatalf("session %v->%v reassembled %d client bytes, want 64", ses.Client, ses.Server, len(ses.ClientData))
		}
	}
}

// TestShardedOverlappingRetransmits: exact duplicates, a retransmit
// straddling old and new bytes, and a fully contained resend must reassemble
// to the stream's bytes exactly once — identically on both paths.
func TestShardedOverlappingRetransmits(t *testing.T) {
	bld := packet.NewBuilder(22)
	var flows [][]edgeStep
	for i := 0; i < 5; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 50+i)), Port: uint16(42000 + i)}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.8"), Port: 80}
		cseq, sseq := uint32(2000*i+5), uint32(911*(i+1))
		payload := make([]byte, 200)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		step := func(seg packet.Segment) edgeStep { return edgeStep{seg: seg, dt: 10 * time.Millisecond} }
		seg := func(off, n int) packet.Segment {
			return packet.Segment{
				Src: c, Dst: s, Seq: cseq + 1 + uint32(off), Ack: sseq + 1,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: payload[off : off+n],
			}
		}
		flows = append(flows, []edgeStep{
			step(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK}),
			step(seg(0, 100)),  // [0,100)
			step(seg(0, 100)),  // exact retransmit
			step(seg(50, 100)), // [50,150): half old, half new
			step(seg(60, 20)),  // [60,80): fully contained resend
			step(seg(150, 50)), // [150,200)
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 201, Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: cseq + 202, Flags: packet.FlagFIN | packet.FlagACK}),
		})
	}
	events := buildEdgeEvents(t, bld, flows)
	sessions := edgeParity(t, Config{IdleTimeout: 2 * time.Second}, events)
	if len(sessions) != 5 {
		t.Fatalf("got %d sessions, want 5", len(sessions))
	}
	for i, ses := range sessions {
		if len(ses.ClientData) != 200 {
			t.Fatalf("session %d reassembled %d client bytes, want 200", i, len(ses.ClientData))
		}
	}
}

// TestShardedIdleSplitParity: several flows go quiet past IdleTimeout and
// resume on the same 4-tuple. The Feed-level split must cut each into two
// sessions at the same point on every shard count, even though per-shard
// Advance cadence differs from the serial scan's.
func TestShardedIdleSplitParity(t *testing.T) {
	bld := packet.NewBuilder(23)
	const nFlows = 8
	first := []byte("first-burst")
	second := []byte("second-burst")
	var burstA, burstB [][]edgeStep
	for i := 0; i < nFlows; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 100+i)), Port: uint16(43000 + i)}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.9"), Port: 8080}
		cseq, sseq := uint32(3000*i+9), uint32(517*(i+1))
		step := func(seg packet.Segment) edgeStep { return edgeStep{seg: seg, dt: 12 * time.Millisecond} }
		burstA = append(burstA, []edgeStep{
			step(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagPSH | packet.FlagACK, Payload: first}),
		})
		burstB = append(burstB, []edgeStep{
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1 + uint32(len(first)), Ack: sseq + 1, Flags: packet.FlagPSH | packet.FlagACK, Payload: second}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1 + uint32(len(first)+len(second)), Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK}),
		})
	}
	// One shared quiet period between the bursts: every flow's gap exceeds
	// IdleTimeout exactly once, so each must split into exactly two sessions.
	events := buildEdgeEvents(t, bld, burstA)
	resumed := buildEdgeEvents(t, bld, burstB)
	gap := events[len(events)-1].ts.Add(3 * time.Second).Sub(resumed[0].ts)
	for i := range resumed {
		resumed[i].ts = resumed[i].ts.Add(gap)
	}
	events = append(events, resumed...)
	sessions := edgeParity(t, Config{IdleTimeout: 2 * time.Second}, events)
	if len(sessions) != 2*nFlows {
		t.Fatalf("got %d sessions, want %d (each flow split in two)", len(sessions), 2*nFlows)
	}
}

// TestShardedEmitDeliversEveryFullSessionOnce: with Config.Emit set, the
// sharded front-end streams batches out as workers complete sessions; the
// union of all batches must equal the serial output exactly (after imposing
// the canonical order, which streaming emission intentionally gives up), and
// Wait must return nothing.
func TestShardedEmitDeliversEveryFullSessionOnce(t *testing.T) {
	events := genTraffic(t, 5, 48)
	base := Config{IdleTimeout: 2 * time.Second}
	want := serialSessions(t, base, events)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			var got []Session
			cfg := base
			cfg.Shards = shards
			cfg.Emit = func(batch []Session) {
				mu.Lock()
				got = append(got, batch...)
				mu.Unlock()
			}
			s := NewSharded(cfg, 1)
			feedSharded(t, s.Feeder(0), events)
			s.Feeder(0).Close()
			if leftover := s.Wait(); len(leftover) != 0 {
				t.Fatalf("Wait returned %d sessions despite Emit", len(leftover))
			}
			SortSessions(got)
			diffSessions(t, got, want)
		})
	}
}

func TestFlowShardMatchesInternalRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		f := packet.Flow{
			Src: packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", rng.Intn(256))), Port: uint16(rng.Intn(65536))},
			Dst: packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("198.51.100.%d", rng.Intn(256))), Port: uint16(rng.Intn(65536))},
		}
		for _, n := range []int{1, 3, 8} {
			if got, want := FlowShard(f, n), shardOf(f, n); got != want {
				t.Fatalf("FlowShard(%v, %d) = %d, internal routing %d", f, n, got, want)
			}
			// Both directions of a conversation must land together.
			rev := packet.Flow{Src: f.Dst, Dst: f.Src}
			if FlowShard(f, n) != FlowShard(rev, n) {
				t.Fatalf("flow %v and its reverse map to different shards", f)
			}
		}
	}
}

// feedScribbled feeds events through the one item Get lends and scribbles
// over it after every Feed: the whole buffer is filled with 0xFF and an
// unrelated frame is decoded into Pkt. Feed copies the frame, so nothing
// fed may change; a batch that aliased the caller's buffer or packet would
// reassemble the scribble.
func feedScribbled(t testing.TB, f *Feeder, events []feedEvent, junk []byte) {
	t.Helper()
	it := f.Get()
	for _, ev := range events {
		it.TS = ev.ts
		it.Buf = append(it.Buf[:0], ev.frame...)
		if err := packet.DecodeInto(&it.Pkt, it.Buf); err != nil {
			t.Error(err)
			return
		}
		f.Feed(it)
		whole := it.Buf[:cap(it.Buf)]
		for i := range whole {
			whole[i] = 0xFF
		}
		if err := packet.DecodeInto(&it.Pkt, junk); err != nil {
			t.Error(err)
			return
		}
		it.TS = time.Time{}
	}
}

// feederModes runs events through a Sharded assembler with 1 feeder and
// with 3 feeders on time-ordered chunks, each feeding its part through
// feedScribbled, and checks every run against the serial sessions.
func feederModes(t *testing.T, cfg Config, events []feedEvent) {
	t.Helper()
	want := serialSessions(t, cfg, events)
	junk := junkFrame(t)
	const n = 3
	chunk := (len(events) + n - 1) / n
	ordered := make([][]feedEvent, n)
	for i, ev := range events {
		ordered[i/chunk] = append(ordered[i/chunk], ev)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, mode := range []struct {
			name  string
			parts [][]feedEvent
		}{
			{"feeders1", [][]feedEvent{events}},
			{"ordered3", ordered},
		} {
			t.Run(fmt.Sprintf("shards%d_%s", shards, mode.name), func(t *testing.T) {
				scfg := cfg
				scfg.Shards = shards
				s := NewSharded(scfg, len(mode.parts))
				var wg sync.WaitGroup
				for i, part := range mode.parts {
					wg.Add(1)
					go func(f *Feeder, evs []feedEvent) {
						defer wg.Done()
						defer f.Close()
						feedScribbled(t, f, evs, junk)
					}(s.Feeder(i), part)
				}
				wg.Wait()
				diffSessions(t, s.Wait(), want)
			})
		}
	}
}

// junkFrame builds a decodable frame on a flow no test capture uses.
func junkFrame(t testing.TB) []byte {
	t.Helper()
	junk, err := packet.NewBuilder(99).Build(packet.Segment{
		Src:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.66"), Port: 666},
		Dst:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.67"), Port: 667},
		Flags:   packet.FlagPSH | packet.FlagACK,
		Payload: bytes.Repeat([]byte{0xEE}, 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	return junk
}

// TestFeederItemReuse pins Feed's copy contract: the caller may reuse and
// overwrite the item as soon as Feed returns, on every shard width and
// feeder layout.
func TestFeederItemReuse(t *testing.T) {
	feederModes(t, Config{IdleTimeout: 2 * time.Second}, genTraffic(t, 17, 48))
}

// TestFeederByteBoundFlush: full-size frames fill a batch by bytes long
// before feedBatch frames, and one frame is larger than a fresh batch
// buffer; reassembly must not notice either.
func TestFeederByteBoundFlush(t *testing.T) {
	const mss = 1400
	if mss*feedBatch <= batchBytes {
		t.Fatalf("%d-byte payloads never fill a batch by bytes", mss)
	}
	fresh := batchPool.New().(*frameBatch)
	huge := cap(fresh.buf) + 4096
	bld := packet.NewBuilder(31)
	var flows [][]edgeStep
	for i := 0; i < 4; i++ {
		c := packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("192.0.2.%d", 200+i)), Port: uint16(44000 + i)}
		s := packet.Endpoint{Addr: packet.MustAddr("198.51.100.10"), Port: 80}
		cseq, sseq := uint32(5000*i+3), uint32(313*(i+1))
		step := func(seg packet.Segment) edgeStep { return edgeStep{seg: seg, dt: 5 * time.Millisecond} }
		steps := []edgeStep{
			step(packet.Segment{Src: c, Dst: s, Seq: cseq, Flags: packet.FlagSYN}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq, Ack: cseq + 1, Flags: packet.FlagSYN | packet.FlagACK}),
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + 1, Ack: sseq + 1, Flags: packet.FlagACK}),
		}
		sizes := make([]int, 60)
		for j := range sizes {
			sizes[j] = mss + j%7
		}
		if i == 0 {
			sizes[30] = huge
		}
		off := uint32(1)
		for j, n := range sizes {
			steps = append(steps, step(packet.Segment{
				Src: c, Dst: s, Seq: cseq + off, Ack: sseq + 1,
				Flags: packet.FlagPSH | packet.FlagACK, Payload: bytes.Repeat([]byte{byte('A' + (i*7+j)%26)}, n),
			}))
			off += uint32(n)
		}
		steps = append(steps,
			step(packet.Segment{Src: c, Dst: s, Seq: cseq + off, Ack: sseq + 1, Flags: packet.FlagFIN | packet.FlagACK}),
			step(packet.Segment{Src: s, Dst: c, Seq: sseq + 1, Ack: cseq + off + 1, Flags: packet.FlagFIN | packet.FlagACK}))
		flows = append(flows, steps)
	}
	events := buildEdgeEvents(t, bld, flows)
	var big bool
	for _, ev := range events {
		big = big || len(ev.frame) > cap(fresh.buf)
	}
	if !big {
		t.Fatal("no frame exceeds a fresh batch buffer")
	}
	feederModes(t, Config{IdleTimeout: 2 * time.Second}, events)
}
