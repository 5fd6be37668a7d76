package replica

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/wal"
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
	// Sync, when true (the default via ListenFeed), commits the store at the
	// top of each shipping round, so replication progress does not depend on
	// anyone else's commit cadence. The commit is a no-op when nothing is
	// dirty.
	Sync bool
	// BatchEvents bounds events per shipped frame. Default 4096.
	BatchEvents int
	// Codec compresses shipped batches. Default snappy.
	Codec fleet.Codec
}

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
	ln  net.Listener

	mu       sync.Mutex
	replicas map[string]*FeedStatus
	closed   bool

	wg sync.WaitGroup
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
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = 4096
	}
	if cfg.Codec == fleet.CodecRaw {
		cfg.Codec = fleet.CodecSnappy
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	f := &Feed{cfg: cfg, ln: ln, replicas: make(map[string]*FeedStatus)}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the bound listen address.
func (f *Feed) Addr() string { return f.ln.Addr().String() }

// Replicas reports every replica ID ever seen, sorted, with its shipping
// state.
func (f *Feed) Replicas() []FeedStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FeedStatus, 0, len(f.replicas))
	for _, st := range f.replicas {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops accepting and tears down every replica connection.
func (f *Feed) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	err := f.ln.Close()
	f.wg.Wait()
	return err
}

func (f *Feed) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer conn.Close()
			f.serve(conn)
		}()
	}
}

// status returns (creating if needed) the persistent entry for a replica ID
// and marks it connected from addr.
func (f *Feed) status(id, addr string) *FeedStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.replicas[id]
	if !ok {
		st = &FeedStatus{ID: id}
		f.replicas[id] = st
	}
	st.Addr = addr
	st.Connected = true
	return st
}

func (f *Feed) update(fn func(*FeedStatus)) func(id string) {
	return func(id string) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if st, ok := f.replicas[id]; ok {
			fn(st)
		}
	}
}

// serve runs one replica connection: handshake, then rounds of
// ship-suffixes / barrier / ack until the connection dies or the feed closes.
func (f *Feed) serve(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := wal.ReadFrame(conn, nil, fleet.MaxFrame)
	if err != nil {
		return
	}
	hello, err := decodeRHello(payload)
	if err != nil {
		writeFrame(conn, encodeRErr(err.Error()))
		return
	}
	parts := f.cfg.Store.CommittedEvents()
	if len(hello.Counts) != len(parts) {
		writeFrame(conn, encodeRErr(fmt.Sprintf(
			"shard count mismatch: replica has %d, coordinator %d — replicate between stores of equal width",
			len(hello.Counts), len(parts))))
		return
	}
	defer func() {
		f.mu.Lock()
		if st, ok := f.replicas[hello.ID]; ok {
			st.Connected = false
		}
		f.mu.Unlock()
	}()
	f.status(hello.ID, conn.RemoteAddr().String())

	pos := append([]uint64(nil), hello.Counts...)
	apos := hello.Amends
	var seq uint64
	lastState := time.Time{}
	for {
		if f.cfg.Sync {
			// Make the published tail committed so it is shippable; cheap
			// no-op when nothing is dirty.
			if err := f.cfg.Store.Sync(); err != nil {
				writeFrame(conn, encodeRErr("coordinator store: "+err.Error()))
				return
			}
		}
		parts := f.cfg.Store.CommittedEvents()
		amends := f.cfg.Store.Amendments()
		target := progress{Counts: make([]uint64, len(parts)), Amends: uint64(len(amends))}
		for i, p := range parts {
			target.Counts[i] = uint64(len(p))
		}

		// Divergence is fatal, not recoverable: a replica claiming more
		// events than the coordinator has committed is tailing the wrong
		// store (or the coordinator's was wiped). Shipping anything would
		// interleave two histories.
		for i := range pos {
			if pos[i] > target.Counts[i] {
				writeFrame(conn, encodeRErr(fmt.Sprintf(
					"replica ahead of coordinator on shard %d (%d > %d): wipe the replica store and resync",
					i, pos[i], target.Counts[i])))
				return
			}
		}
		if apos > target.Amends {
			writeFrame(conn, encodeRErr(fmt.Sprintf(
				"replica amendment log ahead of coordinator (%d > %d): wipe the replica store and resync",
				apos, target.Amends)))
			return
		}

		var sentEvents, sentAmends uint64
		for i, p := range parts {
			for int(pos[i]) < len(p) {
				chunk := p[pos[i]:]
				if len(chunk) > f.cfg.BatchEvents {
					chunk = chunk[:f.cfg.BatchEvents]
				}
				seq++
				if err := f.writeBatch(conn, seq, chunk); err != nil {
					return
				}
				pos[i] += uint64(len(chunk))
				sentEvents += uint64(len(chunk))
			}
		}
		if apos < target.Amends {
			if err := writeFrame(conn, encodeAmends(amends[apos:])); err != nil {
				return
			}
			sentAmends = target.Amends - apos
			apos = target.Amends
		}

		if sentEvents > 0 || sentAmends > 0 || time.Since(lastState) >= f.cfg.Heartbeat {
			if err := writeFrame(conn, encodeProgressMsg(msgRState, &target)); err != nil {
				return
			}
			lastState = time.Now()
			// The replica commits the cut, then acks; the ack is this round's
			// barrier.
			conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			payload, err := wal.ReadFrame(conn, nil, fleet.MaxFrame)
			if err != nil {
				return
			}
			ack, err := decodeProgressMsg(payload, msgRAck, "Ack")
			if err != nil {
				return
			}
			f.update(func(st *FeedStatus) {
				st.EventsSent += sentEvents
				st.AmendsSent += sentAmends
				st.Rounds++
				st.AckedEvents = ack.events()
				st.AckedAmends = ack.Amends
				st.LagEvents = int64(target.events()) - int64(ack.events())
				st.LastAck = time.Now()
			})(hello.ID)
		}

		// Pace the poll; bail out promptly when the feed closes.
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(f.cfg.Poll)
	}
}

func (f *Feed) writeBatch(conn net.Conn, seq uint64, events []ids.Event) error {
	payload, err := fleet.EncodeEventBatch(seq, events, f.cfg.Codec)
	if err != nil {
		return err
	}
	return writeFrame(conn, payload)
}
