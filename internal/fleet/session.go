package fleet

import (
	"context"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire sessions. Both networked protocols — sensor Shipper → coordinator
// Listener, and coordinator replica feed → read replica (internal/replica) —
// run on the helpers in this file: one redial loop for the side that dials,
// one accept loop for the side that listens, one framed connection that puts
// a deadline on every send and receive, and one set of timing constants.
// Each protocol keeps only its own messages and what they mean.
const (
	// dialTimeout bounds one connect attempt, and a dialer's wait for the
	// answer to its hello.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds one frame write on every session: a peer that
	// stops reading fails the connection instead of wedging its writer.
	writeTimeout = 10 * time.Second
	// sensorIdle is how long a coordinator waits for the next frame from a
	// sensor — batches or heartbeats, which arrive every second by default.
	sensorIdle = 60 * time.Second
	// ReplicaIdle is how long either side of the replica feed waits for the
	// next frame: the feed for a hello or an ack, the replica for a batch or
	// the feed's State heartbeat (every 2s by default).
	ReplicaIdle = 30 * time.Second
	// backoffMin and backoffMax bound the redial backoff: exponential, with
	// up to 50% jitter on top, reset to backoffMin after a session that
	// worked.
	backoffMin = 50 * time.Millisecond
	backoffMax = 5 * time.Second
)

// Conn is one framed session connection. Send bounds each write by
// writeTimeout; Recv bounds each read by Idle, and leaves the read deadline
// alone when Idle is zero.
type Conn struct {
	net.Conn
	Idle time.Duration
}

// Send writes one payload as a frame.
func (c Conn) Send(payload []byte) error {
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return writeFrame(c.Conn, payload)
}

// Recv reads one frame, reusing buf's storage when it is large enough.
func (c Conn) Recv(buf []byte) ([]byte, error) {
	if c.Idle > 0 {
		c.SetReadDeadline(time.Now().Add(c.Idle))
	}
	return readFrame(c.Conn, buf)
}

// Accepter runs one handler goroutine per accepted connection and tracks the
// live ones, so Close can end every session promptly instead of waiting out
// its deadlines.
type Accepter struct {
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once Close began

	closeOnce sync.Once
	closeErr  error
}

// Accept starts serving ln. Each connection gets handle on its own goroutine
// and is closed when handle returns; ctx is cancelled when Close begins.
func Accept(ln net.Listener, handle func(ctx context.Context, conn net.Conn)) *Accepter {
	ctx, cancel := context.WithCancel(context.Background())
	a := &Accepter{ln: ln, ctx: ctx, cancel: cancel, conns: map[net.Conn]struct{}{}}
	a.wg.Add(1)
	go a.loop(handle)
	return a
}

// Addr returns the bound listen address.
func (a *Accepter) Addr() net.Addr { return a.ln.Addr() }

func (a *Accepter) loop(handle func(context.Context, net.Conn)) {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return // closed
		}
		a.mu.Lock()
		if a.conns == nil {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			defer func() {
				conn.Close()
				a.mu.Lock()
				delete(a.conns, conn)
				a.mu.Unlock()
			}()
			handle(a.ctx, conn)
		}()
	}
}

// Close stops accepting, closes every live connection and waits for every
// handler to return. It returns the listener's close error.
func (a *Accepter) Close() error {
	a.closeOnce.Do(func() {
		a.cancel()
		a.closeErr = a.ln.Close()
		a.mu.Lock()
		for c := range a.conns {
			c.Close()
		}
		a.conns = nil
		a.mu.Unlock()
		a.wg.Wait()
	})
	return a.closeErr
}

// RedialConfig says where a Redialer connects.
type RedialConfig struct {
	Addr string
	// ID seeds the backoff jitter, so peers that lost the same server
	// spread their reconnects instead of arriving together.
	ID string
	// Dial replaces net.DialTimeout (tests route through a flaky proxy or a
	// fault.Network).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// BackoffMin/BackoffMax override the package defaults when non-zero.
	BackoffMin, BackoffMax time.Duration
}

// Redialer keeps one outbound session running: it dials, runs the session
// over the connection, and after a failure dials again — at once the first
// time, then after a jittered exponential backoff.
type Redialer struct {
	cfg    RedialConfig
	rng    *rand.Rand // run goroutine only
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	conn net.Conn // live connection, nil between sessions

	reconnects atomic.Uint64
}

// Redial starts the loop. session runs once per connection; ctx is
// cancelled (and the connection closed) by Stop. session reports whether the
// link worked — progress resets the backoff, since churn is not an outage —
// and returns a nil error to end the loop for good.
func Redial(cfg RedialConfig, session func(ctx context.Context, conn net.Conn) (progressed bool, err error)) *Redialer {
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin = backoffMin
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = backoffMax
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	ctx, cancel := context.WithCancel(context.Background())
	r := &Redialer{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(int64(h.Sum64()))),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go r.run(session)
	return r
}

// Reconnects counts connection attempts beyond the first.
func (r *Redialer) Reconnects() uint64 { return r.reconnects.Load() }

// Stop ends the loop: it closes the live connection, so a session blocked on
// the wire returns at once, and waits for the loop to exit.
func (r *Redialer) Stop() {
	r.mu.Lock()
	r.cancel()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	<-r.done
}

func (r *Redialer) run(session func(context.Context, net.Conn) (bool, error)) {
	defer close(r.done)
	backoff := r.cfg.BackoffMin
	for attempt := 0; ; attempt++ {
		if r.ctx.Err() != nil {
			return
		}
		if attempt > 0 {
			r.reconnects.Add(1)
		}
		progressed, err := r.once(session)
		if err == nil || r.ctx.Err() != nil {
			return
		}
		if progressed {
			backoff = r.cfg.BackoffMin
		}
		jitter := time.Duration(r.rng.Int63n(int64(backoff)/2 + 1))
		t := time.NewTimer(backoff + jitter)
		select {
		case <-r.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		backoff = min(2*backoff, r.cfg.BackoffMax)
	}
}

// once dials and runs one session, publishing the connection for Stop.
func (r *Redialer) once(session func(context.Context, net.Conn) (bool, error)) (bool, error) {
	conn, err := r.cfg.Dial(r.cfg.Addr, dialTimeout)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	if r.ctx.Err() != nil {
		r.mu.Unlock()
		conn.Close()
		return false, nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		conn.Close()
	}()
	return session(r.ctx, conn)
}
