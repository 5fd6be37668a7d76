package fleet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the coordinator's group-commit machinery. The per-batch hot
// path used to be append → fsync sink → fsync watermark → ack, serialized
// under one sensor lock — two fsyncs per batch, so every sensor beyond the
// second just queued behind the disk. Now batches from all sensors append
// concurrently (the eventstore shards its logs and locks), and each append
// enqueues a commitReq. A single committer goroutine drains the queue and
// coalesces everything pending into ONE durability point: one fsync round of
// only-dirty shards plus one commit record carrying every advanced sensor
// watermark. Only after that point are the queued acks released, so the
// exactly-once contract is untouched — an ack still implies the batch and
// its watermark are on disk; what changed is how many batches share the
// price of getting there.

// commitReq asks the committer to make one batch's application durable and
// then release its ack. Requests with appended=false are waiters: duplicate
// deliveries of a batch that is applied but not yet durable — they advance
// nothing, they just may not be acked before the covering commit lands.
type commitReq struct {
	id       string
	seq      uint64
	appended bool
	conn     net.Conn
	ack      *ackSender
}

// CommitStats exposes the committer's health for /metrics: how hard the
// group commit is working and how much coalescing it achieves.
type CommitStats struct {
	// Commits is the number of group commits completed.
	Commits uint64 `json:"commits"`
	// CoalescedBatches is the total number of batch requests those commits
	// covered; CoalescedBatches/Commits is the average group size.
	CoalescedBatches uint64 `json:"coalesced_batches"`
	// LastBatches is the size of the most recent group.
	LastBatches uint64 `json:"last_batches"`
	// LastFsyncNanos is the wall time of the most recent commit's durability
	// round (shard fsyncs + commit record).
	LastFsyncNanos uint64 `json:"last_fsync_nanos"`
	// QueueDepth is the commit queue backlog right now.
	QueueDepth int `json:"queue_depth"`
}

// CommitStats reports the committer's counters.
func (l *Listener) CommitStats() CommitStats {
	l.pendMu.Lock()
	depth := len(l.pending)
	l.pendMu.Unlock()
	return CommitStats{
		Commits:          l.commits.Load(),
		CoalescedBatches: l.coalesced.Load(),
		LastBatches:      l.lastBatches.Load(),
		LastFsyncNanos:   l.lastFsyncNanos.Load(),
		QueueDepth:       depth,
	}
}

// enqueueCommit adds one request to the commit queue. It never blocks — apply
// calls it from inside the sink's append locks (see hookAppender), where
// blocking on the committer would deadlock.
func (l *Listener) enqueueCommit(r commitReq) {
	l.pendMu.Lock()
	l.pending = append(l.pending, r)
	l.pendMu.Unlock()
	select {
	case l.commitKick <- struct{}{}:
	default:
	}
}

// takePending drains the whole commit queue. During a commit this runs at the
// sink's cut, under its exclusive append lock: every append that the cut's
// sizes cover has already enqueued its request (the in-lock hook), so the
// drain is complete by construction.
func (l *Listener) takePending() []commitReq {
	l.pendMu.Lock()
	reqs := l.pending
	l.pending = nil
	l.pendMu.Unlock()
	return reqs
}

func (l *Listener) pendingLen() int {
	l.pendMu.Lock()
	defer l.pendMu.Unlock()
	return len(l.pending)
}

// commitLoop is the single committer goroutine. It exits when commitStop
// closes, after one final commit of whatever was still pending plus every
// sensor's applied position (so Close never drops an applied batch's
// watermark — not even one whose own commit had failed).
func (l *Listener) commitLoop() {
	defer close(l.commitDone)
	final := func() {
		if !l.aborted() {
			l.commit(l.closeAdvances())
		}
	}
	for {
		select {
		case <-l.commitKick:
		case <-l.commitStop:
			final()
			return
		}
		if l.cfg.CommitInterval > 0 {
			// Gather: everything that arrives within the interval joins this
			// group (the drain at the cut picks it up).
			t := time.NewTimer(l.cfg.CommitInterval)
			select {
			case <-t.C:
			case <-l.commitStop:
				t.Stop()
				final()
				return
			case <-l.abortCh:
				t.Stop()
			}
		}
		if l.aborted() {
			l.takePending() // test-only crash simulation: drain, never commit
			continue
		}
		if l.pendingLen() == 0 {
			continue // drained by the previous commit; its kick was stale
		}
		l.commit(nil)
	}
}

// closeAdvances is the final commit's extra watermark advances: every
// sensor's applied position. Normally the queue drain already covers these,
// but after a FAILED commit the dropped group's batches are applied — their
// bytes sit in the shard files — with no request left to advance them. The
// sink's own Close flushes everything appended, so the last record written
// by this listener must account for those bytes or a restart would replay
// them on top of themselves.
func (l *Listener) closeAdvances() map[string]uint64 {
	adv := make(map[string]uint64)
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, st := range l.sensors {
		st.applyMu.Lock()
		if st.appliedInit && st.applied > l.wm.Get(id) {
			adv[id] = st.applied
		}
		st.applyMu.Unlock()
	}
	return adv
}

// commit makes one group of batches durable and releases their acks. The
// group is whatever the queue holds at the sink's commit cut, plus extra
// watermark advances (the shutdown path's applied positions) and the carry
// from failed commits. Non-appended (duplicate) requests advance the
// watermark too: a duplicate is only queued when its batch is already
// applied, so its bytes sit in the shard files and any cut covers them.
func (l *Listener) commit(extra map[string]uint64) {
	start := time.Now()
	advances := make(map[string]uint64, 4)
	// The carry re-folds advances from failed commits. Those groups' batches
	// stay applied — their bytes are in the shard files, inside every future
	// cut — but their requests are gone. A later record that covered the
	// bytes without these advances would, after a crash, invite the sensor
	// to redeliver on top of them: a double apply.
	for id, seq := range l.carry {
		advances[id] = seq
	}
	for id, seq := range extra {
		if seq > advances[id] {
			advances[id] = seq
		}
	}
	var reqs []commitReq
	drain := func() {
		reqs = l.takePending()
		for _, r := range reqs {
			if r.seq > advances[r.id] {
				advances[r.id] = r.seq
			}
		}
	}
	var err error
	if l.metaSink != nil {
		// The watermarks ride inside the sink's commit record, so "events
		// durable" and "batches applied" are one atomic disk state — there is
		// no crash window where one exists without the other. The queue is
		// drained at the cut itself, so the record's meta covers exactly the
		// batches whose bytes its sizes promise durable.
		err = l.metaSink.CommitFunc(func() []byte {
			drain()
			return l.wm.encodeWith(advances)
		})
		if err == nil {
			l.wm.adopt(advances)
		}
	} else {
		// No commit-record sink: drain first, then fsync the sink (when it
		// can), then the watermark journal, preserving the original ordering
		// — a crash between the two costs redelivery, never loss.
		drain()
		if l.sinkSync != nil {
			err = l.sinkSync.Sync()
		}
		if err == nil {
			err = l.wm.AdvanceAll(advances)
		}
	}
	if err != nil {
		// Durability failed: nothing is acked, every involved connection is
		// failed so its sensor resyncs and redelivers. That downgrade — acked
		// exactly-once to unacked at-least-once — is the contract. The
		// advances are carried into the next commit's record.
		l.carry = advances
		l.fail(fmt.Errorf("fleet: group commit of %d batches: %w", len(reqs), err))
		for _, r := range reqs {
			r.conn.Close()
		}
		return
	}
	l.carry = nil
	l.commits.Add(1)
	l.coalesced.Add(uint64(len(reqs)))
	l.lastBatches.Store(uint64(len(reqs)))
	l.lastFsyncNanos.Store(uint64(time.Since(start)))
	for _, r := range reqs {
		r.ack.push(l.wm.Get(r.id))
	}
}

func (l *Listener) aborted() bool {
	select {
	case <-l.abortCh:
		return true
	default:
		return false
	}
}

// ackSender writes cumulative acks on one connection from its own goroutine,
// so a slow group commit (or a slow peer) stalls ack delivery, never the
// connection's read loop. Acks are cumulative, so only the newest watermark
// matters: pushes coalesce into an atomic max plus a one-slot kick.
type ackSender struct {
	conn    net.Conn
	timeout time.Duration
	latest  atomic.Uint64
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

func newAckSender(conn net.Conn, timeout time.Duration) *ackSender {
	a := &ackSender{
		conn:    conn,
		timeout: timeout,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go a.run()
	return a
}

// push raises the watermark to send. Safe from any goroutine, including the
// committer after the connection is gone (it becomes a no-op).
func (a *ackSender) push(w uint64) {
	for {
		cur := a.latest.Load()
		if w <= cur || a.latest.CompareAndSwap(cur, w) {
			break
		}
	}
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

func (a *ackSender) run() {
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			return
		case <-a.kick:
		}
		// Every kick sends a frame, even at an unchanged watermark — a
		// duplicate delivery of an already-durable batch is answered by
		// re-acking the watermark as-is. Bursts coalesce through the one-slot
		// kick, and cumulative acks are idempotent on the sensor side.
		a.conn.SetWriteDeadline(time.Now().Add(a.timeout))
		if err := writeFrame(a.conn, encodeAck(a.latest.Load())); err != nil {
			// Fail the whole connection: the read loop unblocks and the
			// sensor redelivers everything unacked after reconnecting.
			a.conn.Close()
			return
		}
	}
}

// close stops the writer goroutine; pending pushes are dropped (the sensor's
// next handshake learns the watermark anyway).
func (a *ackSender) close() {
	close(a.stop)
	<-a.done
}

// The decode pool: connection read loops hand compressed batch frames to a
// bounded set of workers so snappy/deflate decode runs on all cores instead
// of serially inside each read loop, with frame copies recycled through a
// sync.Pool and each worker reusing one decompression scratch buffer.

type decodeJob struct {
	buf *[]byte           // pooled copy of the wire frame
	out chan decodeResult // buffered(1): the worker never blocks on delivery
}

type decodeResult struct {
	batch batchMsg
	err   error
}

var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 32<<10); return &b },
}

// decodeScratchMax caps the per-worker decompression buffer a worker keeps
// between jobs; an outlier batch larger than this decodes fine but its
// buffer is not retained.
const decodeScratchMax = 4 << 20

// decodeWorker owns names, its shared-string table (readEvents bounds it):
// the events it decodes for every connection share one copy of each CVE and
// rule message, which is what the store then holds.
func (l *Listener) decodeWorker(names map[string]string) {
	defer l.decodeWg.Done()
	var scratch []byte
	for job := range l.decodeCh {
		m, sc, err := decodeBatchScratch(*job.buf, scratch, names)
		if cap(sc) <= decodeScratchMax {
			scratch = sc
		} else {
			scratch = nil
		}
		frameBufPool.Put(job.buf) // events never alias the frame: their strings come from names
		job.out <- decodeResult{batch: m, err: err}
	}
}
