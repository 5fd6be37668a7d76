package fleet

import (
	"net"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
)

// TestCrashBetweenAppendAndGroupCommit kills the coordinator in the exact
// window group commit opens: a batch appended to the event store but whose
// commit (and therefore ack) never happened. The contract under test is the
// exactly-once boundary from both sides — the acked batch survives the
// crash, the unacked batch is rolled back on restart and redelivery applies
// it exactly once.
func TestCrashBetweenAppendAndGroupCommit(t *testing.T) {
	dir := t.TempDir()
	store, err := eventstore.Open(dir, eventstore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(t, 20)

	dial := func(addr string) (net.Conn, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		h := hello{Version: ProtocolVersion, SensorID: "cc-1", ShardCount: 1}
		if err := writeFrame(conn, h.encode()); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := decodeHelloAck(frame)
		if err != nil {
			t.Fatal(err)
		}
		return conn, ack.Watermark
	}
	send := func(conn net.Conn, seq uint64, evs []ids.Event) {
		t.Helper()
		wire, err := encodeBatch(seq, evs, CodecSnappy)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, wire); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func(conn net.Conn) uint64 {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
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
	listen := func(sink Sink, interval time.Duration) *Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l, err := Listen(ListenerConfig{Listener: ln, Sink: sink, Dir: dir, CommitInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Phase 1: batch 1 flows through a normal listener — appended, group
	// committed, acked. This is the state the crash must not touch.
	l1 := listen(store, 0)
	conn1, w := dial(l1.Addr().String())
	if w != 0 {
		t.Fatalf("fresh handshake watermark %d", w)
	}
	send(conn1, 1, events[:10])
	if w := readAck(conn1); w != 1 {
		t.Fatalf("ack %d, want 1", w)
	}
	conn1.Close()
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: an hour-long commit interval holds the group open, so batch 2
	// is appended to the store but its commit — and ack — never happen.
	l2 := listen(store, time.Hour)
	conn2, w := dial(l2.Addr().String())
	if w != 1 {
		t.Fatalf("restart handshake watermark %d, want 1", w)
	}
	send(conn2, 2, events[10:])
	deadline := time.Now().Add(10 * time.Second)
	for store.Len() != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("batch 2 never appended (store holds %d events)", store.Len())
		}
		time.Sleep(time.Millisecond)
	}
	conn2.Close()
	// Kill the coordinator inside the window: tear down without committing.
	// The store object is abandoned with it — crucially, never Close()d,
	// since Close is itself a commit.
	if err := l2.abandon(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery must truncate the unacked batch (its events were
	// never promised durable) while keeping everything acked.
	recovered, err := eventstore.Open(dir, eventstore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Len(); got != 10 {
		t.Fatalf("recovered store holds %d events, want the 10 acked ones (unacked batch %s)",
			got, map[bool]string{true: "double-applied", false: "partially torn"}[got > 10])
	}

	// Redelivery: the handshake resumes at the durable watermark and the
	// sensor's resend of batch 2 lands exactly once.
	l3 := listen(recovered, 0)
	conn3, w := dial(l3.Addr().String())
	if w != 1 {
		t.Fatalf("post-crash handshake watermark %d, want 1 (acked batch lost?)", w)
	}
	send(conn3, 2, events[10:])
	if w := readAck(conn3); w != 2 {
		t.Fatalf("redelivery ack %d, want 2", w)
	}
	conn3.Close()
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	got := mustSnapshot(t, recovered).Events()
	if len(got) != 20 {
		t.Fatalf("store holds %d events after redelivery, want exactly 20", len(got))
	}
	for i := range got {
		if !eventsEqual(got[i], events[i]) {
			t.Fatalf("event %d lost, duplicated, or corrupted across the crash", i)
		}
	}
}

// mustSnapshot returns st's snapshot, failing the test if it cannot be read.
func mustSnapshot(t testing.TB, st *eventstore.Store) *eventstore.Snapshot {
	t.Helper()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}
