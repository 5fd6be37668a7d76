package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ids"
)

// ShipperConfig wires a sensor-side shipper.
type ShipperConfig struct {
	// Addr is the coordinator's fleet address. Required.
	Addr string
	// SensorID names this sensor to the coordinator. Required, and must be
	// stable across restarts: it keys the coordinator's watermark.
	SensorID string
	// Shard/Shards advertise which slice of the address space this sensor
	// captures (Shards 0 means 1).
	Shard, Shards int
	// StateDir holds the spool. Required.
	StateDir string
	// Window bounds unacked batches in flight. Zero means 8.
	Window int
	// HeartbeatEvery paces liveness while idle. Zero means 1s.
	HeartbeatEvery time.Duration
	// AckTimeout fails the session when batches are in flight but the
	// coordinator has acked nothing for this long. Small heartbeat writes
	// keep succeeding into the socket buffer on a half-open connection
	// (coordinator power loss, NAT drop), so without this the session would
	// stall for the TCP retransmission timeout (~15+ min) while the spool
	// backlog grows silently. Checked at heartbeat cadence. Zero means 15s.
	AckTimeout time.Duration
	// BackoffMin/BackoffMax bound reconnect backoff (exponential, with up to
	// 50% jitter). Zero means 50ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// Lag, when set, reports local ingest backlog for heartbeats.
	Lag func() int64
	// Dial replaces net.DialTimeout (tests route through a flaky proxy or
	// a fault.Network).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// FS is the filesystem the spool runs against. Nil means the real one;
	// the simulation harness substitutes a fault.SimFS.
	FS fault.FS
}

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 15 * time.Second
	}
	return c
}

// ShipperMetrics is a point-in-time view of shipping progress.
type ShipperMetrics struct {
	Connected  bool
	Reconnects uint64 // connection attempts beyond the first
	SentBatch  uint64 // batch frames written (includes redeliveries)
	AckedSeq   uint64 // highest cumulative ack
	LastSeq    uint64 // highest spooled sequence
	Spooled    int    // unacked batches
}

// Shipper spools event batches durably and ships them to the coordinator
// with a bounded in-flight window, reconnecting with jittered exponential
// backoff. It is the ingest pipeline's Sink on a sensor: AppendBatch lands
// in the spool (so nothing is lost while the coordinator is away) and the
// run loop drains the spool over the wire in sequence order, every batch
// snappy-encoded.
type Shipper struct {
	cfg   ShipperConfig
	spool *spool
	link  *Redialer
	wake  chan struct{}

	connected atomic.Bool
	sent      atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// StartShipper opens (recovering) the spool and starts the ship loop.
func StartShipper(cfg ShipperConfig) (*Shipper, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" || cfg.SensorID == "" || cfg.StateDir == "" {
		return nil, errors.New("fleet: ShipperConfig needs Addr, SensorID, StateDir")
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("fleet: shard %d out of range of %d", cfg.Shard, cfg.Shards)
	}
	sp, err := openSpool(cfg.FS, cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Shipper{cfg: cfg, spool: sp, wake: make(chan struct{}, 1)}
	s.link = Redial(RedialConfig{
		Addr: cfg.Addr, ID: cfg.SensorID, Dial: cfg.Dial,
		BackoffMin: cfg.BackoffMin, BackoffMax: cfg.BackoffMax,
	}, s.session)
	return s, nil
}

// AppendBatch spools one event batch for delivery (ingest.Sink). The write
// survives a process crash before return (it is in the OS page cache, not
// necessarily on disk — Sync forces it down, and the ingest checkpointer
// does so before advancing past it); delivery is asynchronous.
func (s *Shipper) AppendBatch(events []ids.Event) error {
	if len(events) == 0 {
		return nil
	}
	if _, err := s.spool.Add(events); err != nil {
		return err
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return nil
}

// Metrics returns current shipping progress.
func (s *Shipper) Metrics() ShipperMetrics {
	return ShipperMetrics{
		Connected:  s.connected.Load(),
		Reconnects: s.link.Reconnects(),
		SentBatch:  s.sent.Load(),
		AckedSeq:   s.spool.Acked(),
		LastSeq:    s.spool.LastSeq(),
		Spooled:    s.spool.Depth(),
	}
}

// Sync fsyncs the spool, making every batch accepted by AppendBatch durable.
// The ingest pipeline calls this (as its Sink's optional syncer) before
// advancing its capture checkpoint past the events it handed over.
func (s *Shipper) Sync() error { return s.spool.Sync() }

// Drained reports whether every spooled batch has been acked.
func (s *Shipper) Drained() bool { return s.spool.Depth() == 0 }

// WaitDrained blocks until the spool is fully acked or ctx ends.
func (s *Shipper) WaitDrained(ctx context.Context) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if s.Drained() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops the ship loop and closes the spool. Unacked batches stay
// spooled on disk and resume on the next StartShipper with the same
// StateDir; use WaitDrained first for a clean flush.
func (s *Shipper) Close() error {
	s.closeOnce.Do(func() {
		s.link.Stop()
		s.closeErr = s.spool.Close()
	})
	return s.closeErr
}

// session runs one connection: handshake, then ship until error or stop. It
// reports whether the handshake succeeded (resets backoff) and returns nil
// exactly when stopping.
func (s *Shipper) session(ctx context.Context, conn net.Conn) (shipped bool, err error) {
	defer s.connected.Store(false)
	c := Conn{Conn: conn, Idle: dialTimeout} // the hello's answer is due within a dial's time
	h := hello{
		Version:    ProtocolVersion,
		SensorID:   s.cfg.SensorID,
		ShardIndex: uint32(s.cfg.Shard),
		ShardCount: uint32(s.cfg.Shards),
		Codec:      CodecSnappy,
	}
	if err := c.Send(h.encode()); err != nil {
		return false, err
	}
	frame, err := c.Recv(nil)
	if err != nil {
		return false, err
	}
	ack, err := decodeHelloAck(frame)
	if err != nil {
		return false, err
	}
	// From here AckTimeout, not a read deadline, judges the link: an idle
	// coordinator sends nothing.
	conn.SetReadDeadline(time.Time{})
	if err := s.spool.AckTo(ack.Watermark); err != nil {
		return true, err
	}
	s.connected.Store(true)

	// Reader: acks in, errors out.
	acks := make(chan uint64, 64)
	readErr := make(chan error, 1)
	go func() {
		var buf []byte
		for {
			frame, err := readFrame(conn, buf)
			if err != nil {
				readErr <- err
				return
			}
			buf = frame
			w, err := decodeAck(frame)
			if err != nil {
				readErr <- err
				return
			}
			select {
			case acks <- w:
			case <-ctx.Done():
				readErr <- errors.New("fleet: stopping")
				return
			}
		}
	}()

	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	lastSent := s.spool.Acked()
	// lastHeard is the ack-progress clock: it advances on every ack received
	// and every batch write (so an idle spell before the first in-flight
	// batch never counts against the coordinator). The window bound makes
	// that safe — once acks stop, at most Window more writes succeed before
	// the clock runs untouched and the timeout trips.
	lastHeard := time.Now()
	// Per-session scratch for the send hot path: wire encoding and frame
	// assembly each reuse one buffer across batches.
	var wireBuf, frameBuf []byte
	for {
		// Fill the window with the next unacked batches.
		for int(lastSent-s.spool.Acked()) < s.cfg.Window {
			b, ok := s.spool.NextAfter(lastSent)
			if !ok {
				break
			}
			payload, err := encodeBatchList(wireBuf, b.seq, b.count, b.list, CodecSnappy)
			if err != nil {
				return true, err
			}
			wireBuf = payload
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := writeFrameReusing(conn, payload, &frameBuf); err != nil {
				return true, err
			}
			s.sent.Add(1)
			lastSent = b.seq
			lastHeard = time.Now()
		}
		select {
		case w := <-acks:
			if err := s.spool.AckTo(w); err != nil {
				return true, err
			}
			lastHeard = time.Now()
		case err := <-readErr:
			return true, err
		case <-s.wake:
		case <-hb.C:
			if inflight := lastSent - s.spool.Acked(); inflight > 0 && time.Since(lastHeard) > s.cfg.AckTimeout {
				return true, fmt.Errorf("fleet: %d batches in flight with no ack in %v; presuming a dead link", inflight, s.cfg.AckTimeout)
			}
			msg := heartbeat{NextSeq: s.spool.LastSeq() + 1, Spooled: uint32(s.spool.Depth())}
			if s.cfg.Lag != nil {
				msg.IngestLag = s.cfg.Lag()
			}
			if err := c.Send(msg.encode()); err != nil {
				return true, err
			}
		case <-ctx.Done():
			return true, nil
		}
	}
}
