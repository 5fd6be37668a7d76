package replica

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/wal"
)

// rawReplica is a hand-driven replica peer: it speaks the feed protocol
// frame by frame, so a test can make it stall wherever it likes.
type rawReplica struct {
	t    *testing.T
	conn net.Conn
}

// dialRaw connects to feed and sends a valid hello for an empty store of the
// coordinator's width.
func dialRaw(t *testing.T, feed *Feed, store *eventstore.Store, id string) *rawReplica {
	t.Helper()
	conn, err := net.Dial("tcp", feed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h := rhello{Version: ProtocolVersion, ID: id,
		progress: progress{Counts: make([]uint64, len(store.CommittedEvents()))}}
	if err := wal.WriteFrame(conn, h.encode(), fleet.MaxFrame); err != nil {
		t.Fatal(err)
	}
	return &rawReplica{t: t, conn: conn}
}

// state reads frames up to and including the next State barrier.
func (p *rawReplica) state() progress {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		buf, err := wal.ReadFrame(p.conn, nil, fleet.MaxFrame)
		if err != nil {
			p.t.Fatal(err)
		}
		if buf[0] == msgRState {
			st, err := decodeProgressMsg(buf, msgRState, "State")
			if err != nil {
				p.t.Fatal(err)
			}
			return st
		}
	}
}

// ack claims the cut as durable, as a real replica does after committing it.
func (p *rawReplica) ack(cut progress) {
	p.t.Helper()
	if err := wal.WriteFrame(p.conn, encodeProgressMsg(msgRAck, &cut), fleet.MaxFrame); err != nil {
		p.t.Fatal(err)
	}
}

func openFeed(t *testing.T, events []ids.Event) (*Feed, *eventstore.Store) {
	t.Helper()
	store, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	// Committed here, so no test leans on the feed committing for it.
	if err := store.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	feed, err := ListenFeed(FeedConfig{
		Addr: "127.0.0.1:0", Store: store,
		Poll: 10 * time.Millisecond, Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return feed, store
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func replicaStatus(feed *Feed, id string) (FeedStatus, bool) {
	for _, st := range feed.Replicas() {
		if st.ID == id {
			return st, true
		}
	}
	return FeedStatus{}, false
}

// incompressible returns n events whose messages snappy cannot shrink, so the
// shipped bytes are roughly n*msgLen.
func incompressible(n, msgLen int) []ids.Event {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	msg := make([]byte, msgLen)
	events := make([]ids.Event, n)
	for i := range events {
		for j := range msg {
			msg[j] = byte('!' + rng.Intn(94))
		}
		events[i] = ids.Event{Time: base.Add(time.Duration(i) * time.Second), SID: 1 + i%7, Msg: string(msg)}
	}
	return events
}

// TestFeedCloseWithStalledReplica: Feed.Close ends every replica session
// promptly, whatever the replica is doing — it does not wait out a read
// deadline on a withheld ack, nor a write blocked on a replica that has
// stopped reading.
func TestFeedCloseWithStalledReplica(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []ids.Event
		stall  func(p *rawReplica)
	}{
		// The replica reads the round's State barrier and never acks.
		{"withheld ack", nil, func(p *rawReplica) { p.state() }},
		// The replica never reads while ~16 MiB of batches — more than both
		// loopback socket buffers hold — wait to be shipped.
		{"unread batches", incompressible(8192, 2048), func(*rawReplica) {
			time.Sleep(100 * time.Millisecond) // let the feed fill the buffers
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed, store := openFeed(t, tc.events)
			p := dialRaw(t, feed, store, "stalled")
			defer p.conn.Close()
			eventually(t, "the feed to register the replica", func() bool {
				st, ok := replicaStatus(feed, "stalled")
				return ok && st.Connected
			})
			tc.stall(p)

			start := time.Now()
			closed := make(chan error, 1)
			go func() { closed <- feed.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
				if took := time.Since(start); took > 2*time.Second {
					t.Fatalf("Feed.Close took %v with a stalled replica, want under 2s", took)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Feed.Close still blocked after 10s with a stalled replica")
			}
		})
	}
}

// TestFeedStatusSurvivesSupersededConn: when a replica reconnects, its old
// connection dying afterwards must not mark the replica disconnected — the
// status row belongs to the newest connection.
func TestFeedStatusSurvivesSupersededConn(t *testing.T) {
	feed, store := openFeed(t, nil)
	defer feed.Close()

	a := dialRaw(t, feed, store, "r1")
	defer a.conn.Close()
	a.ack(a.state())
	b := dialRaw(t, feed, store, "r1")
	defer b.conn.Close()
	b.ack(b.state())
	eventually(t, "B to own the status row", func() bool {
		st, _ := replicaStatus(feed, "r1")
		return st.Connected && st.Addr == b.conn.LocalAddr().String()
	})

	// A goes away; the next shipping round fails on A's connection.
	a.conn.Close()
	if err := store.AppendBatch(incompressible(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	for cut := b.state(); ; cut = b.state() {
		b.ack(cut)
		if cut.events() == 1 {
			break
		}
	}
	eventually(t, "B's ack of the new event", func() bool {
		st, _ := replicaStatus(feed, "r1")
		return st.AckedEvents == 1
	})

	// A's session ends within milliseconds of its failed write; watch well
	// past that.
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		st, _ := replicaStatus(feed, "r1")
		if !st.Connected || st.Addr != b.conn.LocalAddr().String() {
			t.Fatalf("after the superseded connection died: %+v, want Connected on %s", st, b.conn.LocalAddr())
		}
	}
}
