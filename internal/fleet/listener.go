package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ids"
)

// Sink receives applied event batches. *eventstore.Store satisfies it.
type Sink interface {
	AppendBatch(events []ids.Event) error
}

// syncer is implemented by sinks with durable state (*eventstore.Store).
// When the Sink is one, its appends are flushed before each watermark
// advance: the watermark must never claim events the sink could still lose
// to power loss, because the sensor will not resend below the watermark.
type syncer interface{ Sync() error }

// metaCommitter is implemented by sinks whose durability point can carry an
// opaque payload atomically (*eventstore.Store's commit record). When the
// Sink is one, the listener stores the fleet watermarks IN the sink's commit
// record instead of a separate journal fsync: one durable write covers both
// "these events exist" and "these batches are applied", closing the crash
// window between them and halving the fsyncs per group commit.
type metaCommitter interface {
	// CommitFunc makes everything appended so far durable in one commit whose
	// record carries metaFn's return value; metaFn runs at the commit's
	// consistent cut (see eventstore.Store.CommitFunc).
	CommitFunc(metaFn func() []byte) error
	CommitMeta() []byte
}

// hookAppender is implemented by sinks (*eventstore.Store) that can run a
// hook inside the append's critical section. When the Sink is a
// metaCommitter the listener requires this too: enqueueing a batch's commit
// request from inside its append is what guarantees the commit cut's meta
// covers every batch whose bytes the cut includes — an enqueue after the
// append returns could lose that race to a concurrent commit, and a crash
// right after that commit would replay the batch on top of its own bytes.
type hookAppender interface {
	AppendBatchFunc(events []ids.Event, applied func()) error
}

// ListenerConfig wires a coordinator-side fleet listener.
type ListenerConfig struct {
	// Addr is the TCP listen address (":8417" style). Ignored when Listener
	// is set.
	Addr string
	// Listener, when non-nil, is used instead of binding Addr (tests bind
	// 127.0.0.1:0 themselves).
	Listener net.Listener
	// Sink receives each applied batch. Required.
	Sink Sink
	// Dir holds the watermark journal — give it the eventstore directory so
	// dedup state and event log live together. Required.
	Dir string
	// CommitInterval is how long the committer gathers batches into one
	// group commit. Zero means adaptive: commit whatever queued while the
	// previous commit's fsync was in flight — lowest latency when idle,
	// widest coalescing exactly when the disk is the bottleneck. Set it
	// above zero only to trade ack latency for fewer, larger fsyncs on
	// storage with expensive flushes.
	CommitInterval time.Duration
	// FS is the filesystem the watermark journal runs against. Nil means
	// the real one; the simulation harness substitutes a fault.SimFS
	// (typically the same one backing the sink eventstore, so store and
	// journal crash together).
	FS fault.FS
}

// SensorStatus is one sensor's liveness and progress as the coordinator
// sees it — the rows behind GET /v1/fleet and the per-sensor /metrics
// gauges.
type SensorStatus struct {
	ID         string    `json:"id"`
	Shard      int       `json:"shard"`
	Shards     int       `json:"shards"`
	Codec      string    `json:"codec"`
	Connected  bool      `json:"connected"`
	RemoteAddr string    `json:"remote_addr,omitempty"`
	LastSeen   time.Time `json:"last_seen"`
	// Watermark is the highest applied batch sequence (durable).
	Watermark uint64 `json:"watermark"`
	// Batches/Events/DupBatches count what this process applied or dropped
	// since start (they reset on coordinator restart; Watermark does not).
	Batches    uint64 `json:"batches"`
	Events     uint64 `json:"events"`
	DupBatches uint64 `json:"dup_batches"`
	// SpooledBatches and IngestLag are the sensor's own view from its last
	// heartbeat: how far behind the fleet is even when the wire is quiet.
	SpooledBatches uint32 `json:"spooled_batches"`
	IngestLag      int64  `json:"ingest_lag"`
}

// Listener accepts sensor connections and performs exactly-once ingest.
//
// The hot path is a group-commit pipeline: each connection's read loop only
// reads frames (batch decode runs in a shared worker pool, ack writes on a
// dedicated goroutine), appends land in the sink concurrently across
// sensors, and a single committer coalesces all pending batches into one
// durability point before releasing their acks. See committer.go.
type Listener struct {
	cfg      ListenerConfig
	acc      *Accepter
	wm       *Watermarks
	sinkSync syncer        // cfg.Sink when it can fsync, else nil
	metaSink metaCommitter // cfg.Sink when watermarks can ride its commit record, else nil
	sinkHook hookAppender  // cfg.Sink when appends take an in-lock hook, else nil

	mu      sync.Mutex
	sensors map[string]*sensorState

	batches atomic.Uint64
	events  atomic.Uint64
	dups    atomic.Uint64

	// The commit queue. A mutex-guarded slice rather than a channel because
	// enqueues happen inside the sink's append locks (see hookAppender) and
	// must never block there: a full channel drained only by a committer that
	// is itself waiting for those locks would deadlock.
	pendMu     sync.Mutex
	pending    []commitReq
	commitKick chan struct{} // one-slot: "the queue is non-empty"
	commitStop chan struct{} // closed by shutdown: final drain, then exit
	commitDone chan struct{}
	// carry holds watermark advances from failed commits, owned by the
	// committer goroutine alone; see commit().
	carry    map[string]uint64
	abortCh  chan struct{} // closed by abandon(): simulate a crash, commit nothing more
	decodeCh chan decodeJob
	decodeWg sync.WaitGroup
	// decodeNames holds each decode worker's names table, one per worker.
	decodeNames []map[string]string

	commits        atomic.Uint64
	coalesced      atomic.Uint64
	lastBatches    atomic.Uint64
	lastFsyncNanos atomic.Uint64

	closed atomic.Bool

	errMu    sync.Mutex
	firstErr error
}

// sensorState serializes batch application per sensor (an old zombie
// connection must not interleave with its replacement) and holds status.
// applyMu orders appends and commit-queue entries; mu guards only the
// status row, so heartbeats and /v1/fleet reads never wait on disk.
type sensorState struct {
	applyMu     sync.Mutex
	applied     uint64 // highest batch sequence appended to the sink (≥ the durable watermark)
	appliedInit bool

	mu     sync.Mutex
	status SensorStatus
	conn   net.Conn // active connection, nil when disconnected
}

// Listen opens the watermark journal and starts accepting sensors.
func Listen(cfg ListenerConfig) (*Listener, error) {
	if cfg.Sink == nil || cfg.Dir == "" {
		return nil, errors.New("fleet: ListenerConfig needs Sink and Dir")
	}
	ln := cfg.Listener
	if ln == nil {
		if cfg.Addr == "" {
			return nil, errors.New("fleet: ListenerConfig needs Addr or Listener")
		}
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	wm, err := OpenWatermarksFS(cfg.FS, cfg.Dir)
	if err != nil {
		ln.Close()
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	l := &Listener{
		cfg: cfg, wm: wm,
		sensors:    map[string]*sensorState{},
		commitKick: make(chan struct{}, 1),
		commitStop: make(chan struct{}),
		commitDone: make(chan struct{}),
		abortCh:    make(chan struct{}),
		decodeCh:   make(chan decodeJob, 2*workers),
	}
	l.sinkSync, _ = cfg.Sink.(syncer)
	l.metaSink, _ = cfg.Sink.(metaCommitter)
	l.sinkHook, _ = cfg.Sink.(hookAppender)
	if l.metaSink != nil {
		// Watermarks written by a previous run live in the sink's commit
		// record; merge them with any journal-file marks (from a pre-group-
		// commit store), newest per sensor wins.
		if meta := l.metaSink.CommitMeta(); len(meta) > 0 {
			marks, err := decodeMeta(meta)
			if err != nil {
				ln.Close()
				wm.Close()
				return nil, err
			}
			l.wm.adopt(marks)
		}
	}
	l.decodeNames = make([]map[string]string, workers)
	l.decodeWg.Add(workers)
	for i := range l.decodeNames {
		l.decodeNames[i] = make(map[string]string)
		go l.decodeWorker(l.decodeNames[i])
	}
	go l.commitLoop()
	l.acc = Accept(ln, l.handle)
	return l, nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() net.Addr { return l.acc.Addr() }

// Watermarks exposes the dedup journal (tests audit it; serve reports it).
func (l *Listener) Watermarks() *Watermarks { return l.wm }

// Totals reports batches applied, events applied, and duplicate batches
// dropped since this process started.
func (l *Listener) Totals() (batches, events, dups uint64) {
	return l.batches.Load(), l.events.Load(), l.dups.Load()
}

// Err returns the first fatal apply error (sink append or commit failure),
// or nil. Connection-level errors are not fatal: the sensor reconnects and
// redelivers.
func (l *Listener) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.firstErr
}

func (l *Listener) fail(err error) {
	l.errMu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.errMu.Unlock()
}

// Sensors returns every known sensor's status, sorted by ID.
func (l *Listener) Sensors() []SensorStatus {
	l.mu.Lock()
	states := make([]*sensorState, 0, len(l.sensors))
	for _, st := range l.sensors {
		states = append(states, st)
	}
	l.mu.Unlock()
	out := make([]SensorStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		s := st.status
		s.Watermark = l.wm.Get(s.ID)
		st.mu.Unlock()
		out = append(out, s)
	}
	sortStatuses(out)
	return out
}

func sortStatuses(s []SensorStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Close stops accepting, closes live connections, waits for handlers to
// finish, lets the committer flush every still-queued batch (so each applied
// batch has its watermark made durable), and closes the journal.
func (l *Listener) Close() error {
	return l.shutdown(false)
}

// abandon is a test hook: tear down like Close but commit NOTHING queued —
// the process-death simulation for crash-consistency tests. Batches already
// appended to the sink but not yet group-committed are exactly the state a
// kill between append and commit leaves behind.
func (l *Listener) abandon() error {
	return l.shutdown(true)
}

func (l *Listener) shutdown(abort bool) error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	if abort {
		close(l.abortCh)
	}
	err := l.acc.Close()
	close(l.decodeCh)
	l.decodeWg.Wait()
	close(l.commitStop)
	<-l.commitDone
	if werr := l.wm.Close(); err == nil {
		err = werr
	}
	if aerr := l.Err(); err == nil && !abort {
		err = aerr
	}
	return err
}

// pendingBatches bounds how many decoded-but-unapplied batches one
// connection may have in flight — the read loop's backpressure when apply
// or the committer falls behind.
const pendingBatches = 64

func (l *Listener) handle(_ context.Context, conn net.Conn) {
	c := Conn{Conn: conn, Idle: sensorIdle}
	frame, err := c.Recv(nil)
	if err != nil {
		return
	}
	h, err := decodeHello(frame)
	if err != nil {
		return
	}

	st := l.register(h, conn)
	defer l.disconnect(st, conn)

	ack := helloAck{Version: ProtocolVersion, Watermark: l.wm.Get(h.SensorID)}
	if err := c.Send(ack.encode()); err != nil {
		return
	}

	sender := newAckSender(conn, writeTimeout)
	defer sender.close()

	// The apply goroutine consumes decode results in arrival order; the read
	// loop below never waits on decode, disk, or the peer's ack reads.
	pending := make(chan chan decodeResult, pendingBatches)
	applyDone := make(chan struct{})
	go func() {
		defer close(applyDone)
		for out := range pending {
			res := <-out
			if res.err != nil || !l.apply(st, h.SensorID, conn, sender, res.batch) {
				conn.Close() // unblocks the read loop, which closes pending
				for range pending {
				}
				return
			}
		}
	}()
	defer func() { <-applyDone }()
	defer close(pending)

	var buf []byte
	for {
		frame, err := c.Recv(buf)
		if err != nil {
			return
		}
		buf = frame
		if len(frame) == 0 {
			return
		}
		switch frame[0] {
		case msgBatch:
			bp := frameBufPool.Get().(*[]byte)
			*bp = append((*bp)[:0], frame...)
			out := make(chan decodeResult, 1)
			l.decodeCh <- decodeJob{buf: bp, out: out}
			pending <- out
		case msgHeartbeat:
			hb, err := decodeHeartbeat(frame)
			if err != nil {
				return
			}
			st.mu.Lock()
			st.status.LastSeen = time.Now().UTC()
			st.status.SpooledBatches = hb.Spooled
			st.status.IngestLag = hb.IngestLag
			st.mu.Unlock()
		default:
			return // protocol error; let the sensor reconnect
		}
	}
}

// apply performs the exactly-once step for one batch. The next-in-sequence
// batch is appended to the sink (concurrently with other sensors — the sink
// locks per shard) and queued for the group commit; its ack is released only
// once the committer has made the batch AND its watermark durable, so an
// acked batch can never be un-applied by a crash. Duplicates at or below the
// durable watermark are re-acked immediately; duplicates of an applied but
// not-yet-durable batch wait in the commit queue for the covering commit. A
// gap (sequence beyond applied+1) fails the connection so the sensor resyncs
// from the handshake. Returns whether the connection may continue.
func (l *Listener) apply(st *sensorState, id string, conn net.Conn, sender *ackSender, b batchMsg) bool {
	st.applyMu.Lock()
	defer st.applyMu.Unlock()
	if !st.appliedInit {
		st.applied = l.wm.Get(id)
		st.appliedInit = true
	}
	st.mu.Lock()
	st.status.LastSeen = time.Now().UTC()
	st.mu.Unlock()
	switch {
	case b.Seq <= st.applied:
		l.dups.Add(1)
		st.mu.Lock()
		st.status.DupBatches++
		st.mu.Unlock()
		if w := l.wm.Get(id); b.Seq <= w {
			sender.push(w) // already durable: re-ack straight away
		} else {
			// Applied but its group commit is still in flight; queue a waiter
			// so the ack waits for durability like the original delivery did.
			l.enqueueCommit(commitReq{id: id, seq: b.Seq, conn: conn, ack: sender})
		}
		return true
	case b.Seq != st.applied+1:
		return false // gap: redelivery lost a batch; force a resync
	}
	// Enqueued under applyMu so this sensor's requests enter the commit queue
	// in sequence order; the ack is the committer's job now. With a
	// hookAppender sink the enqueue runs inside the append's own locks — any
	// commit cut that covers this batch's bytes is then guaranteed to drain
	// its request and carry its watermark advance in the same record.
	req := commitReq{id: id, seq: b.Seq, appended: true, conn: conn, ack: sender}
	var err error
	if l.sinkHook != nil {
		err = l.sinkHook.AppendBatchFunc(b.Events, func() { l.enqueueCommit(req) })
	} else {
		err = l.cfg.Sink.AppendBatch(b.Events)
	}
	if err != nil {
		l.fail(fmt.Errorf("fleet: applying batch %d from %s: %w", b.Seq, id, err))
		return false
	}
	st.applied = b.Seq
	l.batches.Add(1)
	l.events.Add(uint64(len(b.Events)))
	st.mu.Lock()
	st.status.Batches++
	st.status.Events += uint64(len(b.Events))
	st.mu.Unlock()
	if l.sinkHook == nil {
		l.enqueueCommit(req)
	}
	return true
}

// register notes a (re)connected sensor, superseding any previous
// connection's status row.
func (l *Listener) register(h hello, conn net.Conn) *sensorState {
	l.mu.Lock()
	st, ok := l.sensors[h.SensorID]
	if !ok {
		st = &sensorState{}
		l.sensors[h.SensorID] = st
	}
	l.mu.Unlock()
	st.mu.Lock()
	st.status.ID = h.SensorID
	st.status.Shard = int(h.ShardIndex)
	st.status.Shards = int(h.ShardCount)
	st.status.Codec = h.Codec.String()
	st.status.Connected = true
	st.status.RemoteAddr = conn.RemoteAddr().String()
	st.status.LastSeen = time.Now().UTC()
	st.conn = conn
	st.mu.Unlock()
	return st
}

// disconnect clears Connected unless a newer connection already took over.
func (l *Listener) disconnect(st *sensorState, conn net.Conn) {
	st.mu.Lock()
	if st.conn == conn {
		st.conn = nil
		st.status.Connected = false
	}
	st.mu.Unlock()
}
