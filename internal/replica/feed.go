package replica

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
)

// FeedConfig wires the coordinator-side replication feed.
type FeedConfig struct {
	// Addr is the TCP listen address replicas dial (":8418").
	Addr string
	// Store is the coordinator's event store; only its committed cut is ever
	// shipped, so a feed crash can never hand a replica events the
	// coordinator itself would lose.
	Store *eventstore.Store
	// Poll is how often an idle connection re-checks the store for new
	// committed events. Default 200ms.
	Poll time.Duration
	// Heartbeat is how often an idle connection sends a State frame anyway,
	// so the replica's staleness clock keeps moving. Default 2s.
	Heartbeat time.Duration
}

// Every shipped batch holds at most feedBatchEvents events, snappy-compressed.
const (
	feedBatchEvents = 4096
	feedCodec       = fleet.CodecSnappy
)

// FeedStatus is one replica's shipping state, keyed by the ID it declared.
// The entry survives reconnects, so EventsSent is cumulative for the ID over
// the feed's lifetime — a replica that resumes from its own store instead of
// refetching shows up here as a small delta, not a second full copy.
type FeedStatus struct {
	ID         string
	Addr       string
	Connected  bool
	EventsSent uint64
	AmendsSent uint64
	Rounds     uint64
	// AckedEvents/AckedAmends are the replica's last durable cut.
	AckedEvents uint64
	AckedAmends uint64
	// LagEvents is coordinator committed events minus the replica's last ack.
	LagEvents int64
	LastAck   time.Time
}

// Feed ships the store's committed log to any number of replicas.
type Feed struct {
	cfg FeedConfig
	acc *fleet.Accepter

	mu       sync.Mutex
	replicas map[string]*feedEntry
}

// feedEntry is one replica ID's status row and the connection that owns it.
// A reconnected replica's new connection takes the entry over, so its
// superseded connection dying later must not mark it disconnected.
type feedEntry struct {
	FeedStatus
	conn net.Conn
}

// ListenFeed starts serving replicas on cfg.Addr.
func ListenFeed(cfg FeedConfig) (*Feed, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("replica: FeedConfig needs a Store")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	f := &Feed{cfg: cfg, replicas: make(map[string]*feedEntry)}
	f.acc = fleet.Accept(ln, f.serve)
	return f, nil
}

// Addr returns the bound listen address.
func (f *Feed) Addr() string { return f.acc.Addr().String() }

// Replicas reports every replica ID ever seen, sorted, with its shipping
// state.
func (f *Feed) Replicas() []FeedStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FeedStatus, 0, len(f.replicas))
	for _, e := range f.replicas {
		out = append(out, e.FeedStatus)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops accepting, closes every replica connection and waits for
// their sessions to end.
func (f *Feed) Close() error { return f.acc.Close() }

// connect returns (creating if needed) the persistent entry for a replica ID
// and hands it to conn.
func (f *Feed) connect(id string, conn net.Conn) *feedEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.replicas[id]
	if !ok {
		e = &feedEntry{FeedStatus: FeedStatus{ID: id}}
		f.replicas[id] = e
	}
	e.conn = conn
	e.Addr = conn.RemoteAddr().String()
	e.Connected = true
	return e
}

// disconnect clears Connected unless a newer connection already took over.
func (f *Feed) disconnect(e *feedEntry, conn net.Conn) {
	f.mu.Lock()
	if e.conn == conn {
		e.conn = nil
		e.Connected = false
	}
	f.mu.Unlock()
}

// serve runs one replica connection: handshake, then rounds of
// ship-suffixes / barrier / ack until the connection dies or the feed closes.
func (f *Feed) serve(ctx context.Context, conn net.Conn) {
	c := fleet.Conn{Conn: conn, Idle: fleet.ReplicaIdle}
	buf, err := c.Recv(nil)
	if err != nil {
		return
	}
	hello, err := decodeRHello(buf)
	if err != nil {
		c.Send(encodeRErr(err.Error()))
		return
	}
	parts := f.cfg.Store.CommittedEvents()
	if len(hello.Counts) != len(parts) {
		c.Send(encodeRErr(fmt.Sprintf(
			"shard count mismatch: replica has %d, coordinator %d — replicate between stores of equal width",
			len(hello.Counts), len(parts))))
		return
	}
	e := f.connect(hello.ID, conn)
	defer f.disconnect(e, conn)

	pos := append([]uint64(nil), hello.Counts...)
	apos := hello.Amends
	var seq uint64
	var scratch []ids.Event // catch-up chunks read back from the store's log
	lastState := time.Time{}
	for {
		// Make the published tail committed so it is shippable, without
		// depending on anyone else's commit cadence; a cheap no-op when
		// nothing is dirty.
		if err := f.cfg.Store.Sync(); err != nil {
			c.Send(encodeRErr("coordinator store: " + err.Error()))
			return
		}
		parts := f.cfg.Store.CommittedEvents()
		amends := f.cfg.Store.Amendments()
		target := progress{Counts: make([]uint64, len(parts)), Amends: uint64(len(amends))}
		for i, p := range parts {
			target.Counts[i] = uint64(p.Len())
		}

		// Divergence is fatal, not recoverable: a replica claiming more
		// events than the coordinator has committed is tailing the wrong
		// store (or the coordinator's was wiped). Shipping anything would
		// interleave two histories.
		for i := range pos {
			if pos[i] > target.Counts[i] {
				c.Send(encodeRErr(fmt.Sprintf(
					"replica ahead of coordinator on shard %d (%d > %d): wipe the replica store and resync",
					i, pos[i], target.Counts[i])))
				return
			}
		}
		if apos > target.Amends {
			c.Send(encodeRErr(fmt.Sprintf(
				"replica amendment log ahead of coordinator (%d > %d): wipe the replica store and resync",
				apos, target.Amends)))
			return
		}

		var sentEvents, sentAmends uint64
		for i, p := range parts {
			for int(pos[i]) < p.Len() {
				chunk, err := f.chunk(i, p, int(pos[i]), &scratch)
				if err != nil {
					c.Send(encodeRErr("coordinator store: " + err.Error()))
					return
				}
				seq++
				payload, err := fleet.EncodeEventBatch(seq, chunk, feedCodec)
				if err != nil {
					return
				}
				if err := c.Send(payload); err != nil {
					return
				}
				pos[i] += uint64(len(chunk))
				sentEvents += uint64(len(chunk))
			}
		}
		if apos < target.Amends {
			if err := c.Send(encodeAmends(amends[apos:])); err != nil {
				return
			}
			sentAmends = target.Amends - apos
			apos = target.Amends
		}

		if sentEvents > 0 || sentAmends > 0 || time.Since(lastState) >= f.cfg.Heartbeat {
			if err := c.Send(encodeProgressMsg(msgRState, &target)); err != nil {
				return
			}
			lastState = time.Now()
			// The replica commits the cut, then acks; the ack is this round's
			// barrier.
			if buf, err = c.Recv(buf); err != nil {
				return
			}
			ack, err := decodeProgressMsg(buf, msgRAck, "Ack")
			if err != nil {
				return
			}
			f.mu.Lock()
			e.EventsSent += sentEvents
			e.AmendsSent += sentAmends
			e.Rounds++
			e.AckedEvents = ack.events()
			e.AckedAmends = ack.Amends
			e.LagEvents = int64(target.events()) - int64(ack.events())
			e.LastAck = time.Now()
			f.mu.Unlock()
		}

		select {
		case <-ctx.Done():
			return
		case <-time.After(f.cfg.Poll):
		}
	}
}

// chunk returns the next batch of shard i's events to ship from position
// pos: at most feedBatchEvents of them, ending at the part's length. Events
// the store holds in memory are shipped as they stand; a replica catching
// up on history the store has released gets it read back from the shard's
// log into *scratch, one chunk at a time.
func (f *Feed) chunk(i int, p eventstore.Part, pos int, scratch *[]ids.Event) ([]ids.Event, error) {
	end := min(pos+feedBatchEvents, p.Len())
	if pos >= p.Base {
		tail, err := p.Tail(pos)
		return tail[:end-pos], err
	}
	end = min(end, p.Base)
	buf := (*scratch)[:0]
	err := f.cfg.Store.ReadRange(i, pos, end, func(ev *ids.Event) error {
		buf = append(buf, *ev)
		return nil
	})
	*scratch = buf
	return buf, err
}
