package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
)

// Config wires a read replica.
type Config struct {
	// Addr is the coordinator feed's address.
	Addr string
	// Store is the replica's own event store. It must not receive writes from
	// anyone else: the replica resumes from its committed counts, and local
	// writes would read as divergence.
	Store *eventstore.Store
	// ID names this replica to the feed ("replica-1"). Required. It also
	// seeds the reconnect backoff's jitter.
	ID string
}

// Status is the replica's replication state, for /metrics and /healthz.
type Status struct {
	ID        string
	Connected bool
	// LastContact is when the last frame from the coordinator was applied;
	// a replica /healthz measures staleness from it, not from local appends.
	LastContact time.Time
	// CoordEvents/CoordAmends are the coordinator's committed cut per its
	// latest State frame; Local* are this store's counts at the last barrier.
	CoordEvents uint64
	CoordAmends uint64
	LocalEvents uint64
	LocalAmends uint64
	// LagEvents is CoordEvents - LocalEvents at the last barrier: how far
	// behind the replica's durable cut is.
	LagEvents int64
	LagAmends int64
	// Rounds counts applied barriers; EventsApplied and AmendsApplied count
	// records appended since this process started (a resumed replica applies
	// only the delta).
	Rounds        uint64
	EventsApplied uint64
	AmendsApplied uint64
	// Err is a terminal protocol error (divergence, shard mismatch). A
	// non-empty Err means tailing has stopped for good; /healthz answers 503.
	Err string
}

// Replica tails a coordinator feed into its own store.
type Replica struct {
	cfg Config

	mu sync.Mutex
	st Status

	// names shares the CVE and message strings of every event the tail
	// loop decodes (fleet.DecodeEventBatchNames bounds it); only the tail
	// goroutine touches it.
	names map[string]string

	link *fleet.Redialer
}

// Start begins tailing. The replica reconnects with the fleet session's
// jittered exponential backoff until Close — except on a terminal Err frame
// from the feed, which stops it permanently.
func Start(cfg Config) (*Replica, error) {
	if cfg.Store == nil || cfg.Addr == "" || cfg.ID == "" {
		return nil, fmt.Errorf("replica: Config needs Addr, Store, and ID")
	}
	r := &Replica{cfg: cfg, names: make(map[string]string)}
	r.st.ID = cfg.ID
	r.link = fleet.Redial(fleet.RedialConfig{Addr: cfg.Addr, ID: cfg.ID}, r.tail)
	return r, nil
}

// Status returns the current replication state.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// Close stops tailing, promptly: it closes the live connection rather than
// waiting for the next frame. The replica's store is left exactly at its
// last committed cut; a restarted replica resumes from there.
func (r *Replica) Close() error {
	r.link.Stop()
	return nil
}

func (r *Replica) set(fn func(*Status)) {
	r.mu.Lock()
	fn(&r.st)
	r.mu.Unlock()
}

// local reads the replica store's durable cut: per-shard committed counts
// plus the amendment record count.
func (r *Replica) local() progress {
	parts := r.cfg.Store.CommittedEvents()
	p := progress{Counts: make([]uint64, len(parts))}
	for i, part := range parts {
		p.Counts[i] = uint64(part.Len())
	}
	p.Amends = uint64(len(r.cfg.Store.Amendments()))
	return p
}

// tail runs one connection to completion. It reports whether any frame
// arrived (the link worked) and returns a nil error when tailing must stop
// for good: a terminal Err frame, or a feed speaking another protocol.
func (r *Replica) tail(_ context.Context, conn net.Conn) (progressed bool, err error) {
	defer r.set(func(st *Status) { st.Connected = false })
	c := fleet.Conn{Conn: conn, Idle: fleet.ReplicaIdle}
	hello := rhello{Version: ProtocolVersion, ID: r.cfg.ID, progress: r.local()}
	if err := c.Send(hello.encode()); err != nil {
		return false, err
	}
	r.set(func(st *Status) { st.Connected = true })

	var buf []byte
	for {
		if buf, err = c.Recv(buf); err != nil {
			return progressed, err
		}
		if len(buf) == 0 {
			return progressed, errors.New("replica: empty frame from coordinator")
		}
		progressed = true
		switch buf[0] {
		case fleet.MsgBatch:
			_, events, err := fleet.DecodeEventBatchNames(buf, r.names)
			if err != nil {
				return true, err
			}
			// Deterministic shard routing re-creates the coordinator's
			// per-shard placement; the handshake guaranteed equal widths.
			if err := r.cfg.Store.AppendBatch(events); err != nil {
				return true, err
			}
			r.set(func(st *Status) {
				st.EventsApplied += uint64(len(events))
				st.LastContact = time.Now()
			})
		case msgRAmends:
			as, err := decodeAmends(buf)
			if err != nil {
				return true, err
			}
			if err := r.cfg.Store.AppendAmendments(as); err != nil {
				return true, err
			}
			r.set(func(st *Status) {
				st.AmendsApplied += uint64(len(as))
				st.LastContact = time.Now()
			})
		case msgRState:
			coord, err := decodeProgressMsg(buf, msgRState, "State")
			if err != nil {
				return true, err
			}
			// Barrier: make everything applied this round durable, then ack
			// the cut. A crash before the commit re-ships the round; a crash
			// after it resumes past it — never a double apply, because the
			// store truncates to its commit record on open.
			if err := r.cfg.Store.Commit(nil); err != nil {
				return true, err
			}
			local := r.local()
			if err := c.Send(encodeProgressMsg(msgRAck, &local)); err != nil {
				return true, err
			}
			r.set(func(st *Status) {
				st.Rounds++
				st.LastContact = time.Now()
				st.CoordEvents = coord.events()
				st.CoordAmends = coord.Amends
				st.LocalEvents = local.events()
				st.LocalAmends = local.Amends
				st.LagEvents = int64(coord.events()) - int64(local.events())
				st.LagAmends = int64(coord.Amends) - int64(local.Amends)
			})
		case msgRErr:
			msg, err := decodeRErr(buf)
			if err != nil {
				msg = err.Error()
			}
			r.set(func(st *Status) { st.Err = msg })
			return true, nil
		default:
			r.set(func(st *Status) {
				st.Err = fmt.Sprintf("unexpected message type %d from coordinator", buf[0])
			})
			return true, nil
		}
	}
}
