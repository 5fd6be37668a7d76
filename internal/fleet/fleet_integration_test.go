package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func listenLoopback(t *testing.T, sink Sink, dir string) *Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen(ListenerConfig{Listener: ln, Sink: sink, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func fastShipper(addr, id, stateDir string) ShipperConfig {
	return ShipperConfig{
		Addr: addr, SensorID: id, StateDir: stateDir,
		HeartbeatEvery: 20 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
	}
}

func waitDrained(t *testing.T, s *Shipper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitDrained(ctx); err != nil {
		t.Fatalf("shipper never drained: %v (metrics %+v)", err, s.Metrics())
	}
}

// TestShipperListenerHappyPath: batches spooled before and after connection
// all arrive once, in order, and the status surface reflects them.
func TestShipperListenerHappyPath(t *testing.T) {
	sink := &memSink{}
	l := listenLoopback(t, sink, t.TempDir())
	defer l.Close()

	events := testEvents(t, 90)
	stateDir := t.TempDir()

	// Spool two batches before the shipper exists (sensor ahead of its link):
	// recovery must deliver them.
	sp, err := openSpool(nil, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Add(events[:30]); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Add(events[30:60]); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := fastShipper(l.Addr().String(), "alpha", stateDir)
	cfg.Shard, cfg.Shards = 1, 3
	s, err := StartShipper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(events[60:90]); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, s)

	got := sink.snapshot()
	if len(got) != 90 {
		t.Fatalf("sink holds %d events, want 90", len(got))
	}
	for i := range got {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d out of order or corrupted", i)
		}
	}
	if w := l.Watermarks().Get("alpha"); w != 3 {
		t.Fatalf("watermark %d, want 3", w)
	}
	batches, nEvents, dups := l.Totals()
	if batches != 3 || nEvents != 90 || dups != 0 {
		t.Fatalf("totals %d/%d/%d", batches, nEvents, dups)
	}
	statuses := l.Sensors()
	if len(statuses) != 1 {
		t.Fatalf("%d sensors", len(statuses))
	}
	st := statuses[0]
	if st.ID != "alpha" || !st.Connected || st.Shard != 1 || st.Shards != 3 ||
		st.Codec != "snappy" || st.Watermark != 3 || st.Events != 90 {
		t.Fatalf("status %+v", st)
	}
}

// TestShipperReconnectsAndDedups: the coordinator dies mid-stream and a new
// one takes over the same journal; acked batches are not re-applied, unacked
// ones redeliver exactly once.
func TestShipperReconnectsAndDedups(t *testing.T) {
	sink := &memSink{}
	dir := t.TempDir()
	l := listenLoopback(t, sink, dir)
	addr := l.Addr().String()

	stateDir := t.TempDir()
	s, err := StartShipper(fastShipper(addr, "beta", stateDir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	events := testEvents(t, 100)
	if err := s.AppendBatch(events[:50]); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, s)

	// Coordinator restart: close the listener (watermark journal released),
	// then reopen on the same address with the same journal dir.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// More batches while the coordinator is down: they spool locally.
	if err := s.AppendBatch(events[50:80]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(events[80:]); err != nil {
		t.Fatal(err)
	}
	if s.Drained() {
		t.Fatal("drained with the coordinator down")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Listen(ListenerConfig{Listener: ln2, Sink: sink, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	waitDrained(t, s)

	got := sink.snapshot()
	if len(got) != 100 {
		t.Fatalf("sink holds %d events, want exactly 100 (dups or loss)", len(got))
	}
	for i := range got {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d wrong after restart", i)
		}
	}
	if w := l2.Watermarks().Get("beta"); w != 3 {
		t.Fatalf("watermark %d, want 3", w)
	}
	if m := s.Metrics(); m.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", m)
	}
}

// TestListenerDropsStaleRedelivery: a second connection replaying an old
// sequence is acked but not re-applied.
func TestListenerDropsStaleRedelivery(t *testing.T) {
	sink := &memSink{}
	l := listenLoopback(t, sink, t.TempDir())
	defer l.Close()

	events := testEvents(t, 10)
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		h := hello{Version: ProtocolVersion, SensorID: "gamma", ShardCount: 1}
		if err := writeFrame(conn, h.encode()); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(conn, nil); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	send := func(conn net.Conn, seq uint64) uint64 {
		t.Helper()
		wire, err := encodeBatch(seq, events, CodecSnappy)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, wire); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := decodeAck(frame)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	conn := dial()
	defer conn.Close()
	if w := send(conn, 1); w != 1 {
		t.Fatalf("ack %d", w)
	}
	if w := send(conn, 2); w != 2 {
		t.Fatalf("ack %d", w)
	}
	// A zombie's redelivery of 1 and 2: dropped, re-acked at the watermark.
	zombie := dial()
	defer zombie.Close()
	if w := send(zombie, 1); w != 2 {
		t.Fatalf("dup ack %d, want 2", w)
	}
	if w := send(zombie, 2); w != 2 {
		t.Fatalf("dup ack %d, want 2", w)
	}
	if got := sink.len(); got != 20 {
		t.Fatalf("sink holds %d events, want 20 (dups applied?)", got)
	}
	_, _, dups := l.Totals()
	if dups != 2 {
		t.Fatalf("dup counter %d, want 2", dups)
	}
	// A gap (4 when the watermark is 2) must fail the connection.
	wire, err := encodeBatch(4, events, CodecSnappy)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(zombie, wire); err != nil {
		t.Fatal(err)
	}
	zombie.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(zombie, nil); err == nil {
		t.Fatal("gap batch was acked instead of failing the connection")
	}
}

// TestShipperAckProgressTimeout: a coordinator that handshakes and then goes
// silent (half-open link: power loss behind a NAT, dropped peer) must not
// stall shipping until the TCP retransmission timeout. The shipper's
// ack-progress timer has to fail the session and reconnect.
func TestShipperAckProgressTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Blackhole coordinator: completes the handshake, then reads and
	// discards frames without ever acking.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := readFrame(conn, nil); err != nil {
					return
				}
				ack := helloAck{Version: ProtocolVersion, Watermark: 0}
				if err := writeFrame(conn, ack.encode()); err != nil {
					return
				}
				var buf []byte
				for {
					frame, err := readFrame(conn, buf)
					if err != nil {
						return
					}
					buf = frame
				}
			}(conn)
		}
	}()

	cfg := fastShipper(ln.Addr().String(), "half-open", t.TempDir())
	cfg.AckTimeout = 100 * time.Millisecond
	s, err := StartShipper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(testEvents(t, 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect despite a silent coordinator: %+v", s.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManySensorsConcurrent: several shippers interleave; the sink ends with
// the exact union, each sensor's stream applied in order.
func TestManySensorsConcurrent(t *testing.T) {
	sink := &memSink{}
	l := listenLoopback(t, sink, t.TempDir())
	defer l.Close()

	const sensors, batches, per = 4, 20, 5
	var wg sync.WaitGroup
	shippers := make([]*Shipper, sensors)
	for i := 0; i < sensors; i++ {
		id := string(rune('a' + i))
		s, err := StartShipper(fastShipper(l.Addr().String(), id, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		shippers[i] = s
		wg.Add(1)
		go func(s *Shipper, off int) {
			defer wg.Done()
			events := testEvents(t, batches*per)
			for b := 0; b < batches; b++ {
				if err := s.AppendBatch(events[b*per : (b+1)*per]); err != nil {
					t.Error(err)
					return
				}
			}
		}(s, i)
	}
	wg.Wait()
	for _, s := range shippers {
		waitDrained(t, s)
	}
	if got := sink.len(); got != sensors*batches*per {
		t.Fatalf("sink holds %d events, want %d", got, sensors*batches*per)
	}
	for _, st := range l.Sensors() {
		if st.Watermark != batches {
			t.Fatalf("sensor %s watermark %d, want %d", st.ID, st.Watermark, batches)
		}
	}
}

// TestDecodeNamesBounded: a sensor shipping far more distinct CVE and
// message strings than MaxNames leaves every decode worker's names table at
// or below the bound, and the stored events are still exactly the shipped
// ones.
func TestDecodeNamesBounded(t *testing.T) {
	sink := &memSink{}
	l := listenLoopback(t, sink, t.TempDir())
	events := testEvents(t, 3*MaxNames)
	for i := range events {
		events[i].CVE = fmt.Sprintf("2099-%d", i)
		events[i].Msg = fmt.Sprintf("rule message %d", i)
	}
	s, err := StartShipper(fastShipper(l.Addr().String(), "wide", t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(events); i += 500 {
		if err := s.AppendBatch(events[i:min(i+500, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, s)
	s.Close()
	if err := l.Close(); err != nil { // the decode workers have exited
		t.Fatal(err)
	}
	for i, names := range l.decodeNames {
		if len(names) > MaxNames {
			t.Errorf("decode worker %d holds %d names, bound %d", i, len(names), MaxNames)
		}
	}
	got := sink.snapshot()
	if len(got) != len(events) {
		t.Fatalf("sink holds %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d stored as %+v, want %+v", i, got[i], events[i])
		}
	}
}
