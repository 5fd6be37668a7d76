package tcpasm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// Sharded front-end: Config.Shards independent Assemblers, each owned by
// one worker goroutine, fed over bounded channels by one or more decoding
// goroutines (Feeders). The 4-tuple flow key hashes every packet of a
// connection to the same shard, so each shard sees complete conversations
// and the shards never share state on the hot path.
//
// Determinism. Session output is byte-identical to one serial Assembler over
// the same packets, for any shard count, provided capture timestamps are
// non-decreasing in feed order (pcap files are written in capture order):
//
//   - Flow affinity: all packets of a connection land on one shard, in their
//     original relative order (feeders preserve order; workers consume each
//     feeder's queue FIFO, and feeders are consumed in segment order).
//   - Idle handling is content-driven, not schedule-driven: Feed itself
//     splits a connection whose gap reaches IdleTimeout, so the per-shard
//     Advance cadence (which differs from the serial scan's) can only change
//     *when* an idle session is emitted, never its contents.
//   - Merge order is total: sessions are merged and sorted by
//     (End, Start, Client, Server), the same order the serial path uses.
//
// Two usage modes:
//
//	batch scan (N feeders):   feeders Feed until EOF, Close; Wait() merges.
//	streaming (one feeder):   the feeder interleaves Feed with Drain /
//	                          FlushSessions barriers (ingest's idle flushes
//	                          and checkpoints).
type Sharded struct {
	cfg    Config
	shards []*shard
	fdrs   []*Feeder
	pool   sync.Pool // *FeedItem
	wg     sync.WaitGroup

	// openFeeders counts unclosed feeders in flow-disjoint mode; the last
	// Close closes the shared shard queues.
	openFeeders atomic.Int32
}

const (
	// feedBatch is how many packets a feeder accumulates per shard before
	// handing the batch over; batching amortizes channel operations.
	feedBatch = 128
	// queueBatches bounds in-flight batches per (feeder, shard) pair — the
	// backpressure that keeps a fast decoder from outrunning reassembly.
	// Every queued FeedItem pins a 2 KiB frame buffer, so the bound is
	// queueBatches × feedBatch × 2 KiB = 1 MiB per pair, shards × feeders
	// MiB for the front-end. It is small on purpose: once frame synthesis
	// got cheap (PR 21) the producer keeps every queue full, and at 32 the
	// window alone doubled stream_study's heap_p90 (≈48 → ≈95 MiB), while
	// 2, 4 and 8 ran at the same throughput (4 measured ≈26 MiB).
	queueBatches = 4
	// advanceEvery matches the serial scan cadence: each shard reclaims
	// idle-connection memory after this many applied packets.
	advanceEvery = 4096
)

// FeedItem carries one decoded packet from a feeder to a shard worker. The
// feeder fills Buf with the raw frame (reusing its capacity), decodes into
// Pkt — whose payload slices alias Buf — and passes ownership via
// Feeder.Feed. The worker recycles the item once the assembler has copied
// what it retains, so the hot path allocates nothing in steady state.
type FeedItem struct {
	TS  time.Time
	Pkt packet.Packet
	Buf []byte
}

type ctlOp uint8

const (
	opBatch ctlOp = iota
	opAdvance
	opFlush
)

// shardMsg is one unit of work on a shard queue: a packet batch, or a
// control barrier carrying a reply channel.
type shardMsg struct {
	op    ctlOp
	items []*FeedItem
	now   time.Time
	reply chan []Session
}

type shard struct {
	asm *Assembler
	in  []chan shardMsg // one queue per feeder, consumed in feeder order

	open    atomic.Int64  // conns currently tracked (gauge)
	queued  atomic.Int64  // messages sent but not yet applied (gauge)
	packets atomic.Uint64 // packets applied since start

	// Worker-local state.
	applied int       // packets since the last self-advance
	maxTS   time.Time // newest capture timestamp seen
	done    []Session // final sessions, parked for Wait
}

// NewSharded starts cfg.Shards shard workers and creates one Feeder per
// producer (feeders < 1 is treated as 1). Each producer goroutine must own
// exactly one Feeder; producers map to time-ordered capture segments, feeder
// 0 being the earliest.
func NewSharded(cfg Config, feeders int) *Sharded {
	cfg = cfg.withDefaults()
	if feeders < 1 {
		feeders = 1
	}
	s := &Sharded{cfg: cfg}
	s.pool.New = func() any { return &FeedItem{Buf: make([]byte, 0, 2048)} }
	s.openFeeders.Store(int32(feeders))
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{asm: NewAssembler(cfg)}
		if cfg.FlowDisjointFeeders {
			// One shared queue, consumed fairly: with flow-disjoint
			// feeders no worker may wait on a specific feeder, or a
			// single producer fanning out to the segments deadlocks.
			sh.in = []chan shardMsg{make(chan shardMsg, queueBatches*feeders)}
		} else {
			for f := 0; f < feeders; f++ {
				sh.in = append(sh.in, make(chan shardMsg, queueBatches))
			}
		}
		s.shards = append(s.shards, sh)
	}
	for f := 0; f < feeders; f++ {
		qidx := f
		if cfg.FlowDisjointFeeders {
			qidx = 0
		}
		s.fdrs = append(s.fdrs, &Feeder{s: s, idx: f, qidx: qidx, pend: make([][]*FeedItem, len(s.shards))})
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.run(sh)
	}
	return s
}

// Feeder returns producer i's feeder handle.
func (s *Sharded) Feeder(i int) *Feeder { return s.fdrs[i] }

// NumShards reports the shard count in effect (after defaulting).
func (s *Sharded) NumShards() int { return len(s.shards) }

// run is one shard worker. Feeder queues are consumed strictly in feeder
// order: feeders map to capture segments in time order, so a flow spanning
// segments is applied in capture order. The priority is identical on every
// shard, which makes the schedule deadlock-free by induction — no worker
// ever parks feeder 0's queue behind another, so feeder 0 always progresses
// and closes, unblocking feeder 1 everywhere, and so on.
func (s *Sharded) run(sh *shard) {
	defer s.wg.Done()
	for f := 0; f < len(sh.in); f++ {
		for msg := range sh.in[f] {
			s.apply(sh, msg)
		}
	}
	sh.asm.Flush()
	out := sh.asm.Sessions()
	if s.cfg.Emit != nil {
		if len(out) > 0 {
			s.cfg.Emit(out)
		}
	} else {
		sh.done = out
	}
	sh.open.Store(0)
}

func (s *Sharded) apply(sh *shard, msg shardMsg) {
	sh.queued.Add(-1)
	switch msg.op {
	case opBatch:
		for _, it := range msg.items {
			if it.TS.After(sh.maxTS) {
				sh.maxTS = it.TS
			}
			sh.asm.Feed(it.TS, &it.Pkt)
			s.pool.Put(it)
		}
		sh.packets.Add(uint64(len(msg.items)))
		sh.applied += len(msg.items)
		if sh.applied >= advanceEvery {
			sh.applied = 0
			// Content-neutral under the Feed-level idle split: this only
			// reclaims memory and emits already-decided sessions early. It
			// requires applied timestamps non-decreasing per shard, which
			// flow-disjoint (mutually unordered) segments do not give —
			// there the horizon would idle out mid-flight connections, so
			// the advance is skipped and undecided sessions wait for the
			// end-of-capture flush.
			if !s.cfg.FlowDisjointFeeders {
				sh.asm.Advance(sh.maxTS)
			}
		}
		putBatch(msg.items)
		if s.cfg.Emit != nil {
			// Streaming emission: hand over whatever this batch completed
			// (closed connections plus anything the periodic Advance decided)
			// so downstream matching overlaps with reassembly and no shard
			// accumulates its whole output.
			if out := sh.asm.Sessions(); len(out) > 0 {
				s.cfg.Emit(out)
			}
		}
	case opAdvance:
		sh.asm.Advance(msg.now)
		if msg.reply != nil {
			msg.reply <- sh.asm.Sessions()
		}
	case opFlush:
		sh.asm.Flush()
		if msg.reply != nil {
			msg.reply <- sh.asm.Sessions()
		}
	}
	sh.open.Store(int64(sh.asm.OpenConns()))
}

// Drain advances every shard's idle horizon to now and returns all sessions
// completed so far in deterministic order — the sharded counterpart of
// Assembler.Drain. Barrier semantics: it blocks until every shard has
// applied everything fed before the call. Streaming mode only: it must be
// called from the goroutine owning the sole feeder.
func (s *Sharded) Drain(now time.Time) []Session {
	return s.barrier(shardMsg{op: opAdvance, now: now})
}

// FlushSessions closes every open connection on every shard and returns the
// completed sessions in deterministic order — the sharded counterpart of
// Assembler.Flush + Sessions. Same calling constraints as Drain.
func (s *Sharded) FlushSessions() []Session {
	return s.barrier(shardMsg{op: opFlush})
}

func (s *Sharded) barrier(msg shardMsg) []Session {
	s.fdrs[0].FlushBatches()
	replies := make([]chan []Session, len(s.shards))
	for i, sh := range s.shards {
		m := msg
		m.reply = make(chan []Session, 1)
		replies[i] = m.reply
		sh.queued.Add(1)
		sh.in[0] <- m
	}
	var out []Session
	for _, r := range replies {
		out = append(out, <-r...)
	}
	sortSessions(out)
	return out
}

// Wait blocks until every shard worker has exited — every Feeder must have
// been Closed first — and returns the merged remaining sessions (open
// connections are flushed at worker exit) in deterministic order.
func (s *Sharded) Wait() []Session {
	s.wg.Wait()
	var out []Session
	for _, sh := range s.shards {
		out = append(out, sh.done...)
		sh.done = nil
	}
	sortSessions(out)
	return out
}

// OpenConns reports connections currently tracked across all shards.
func (s *Sharded) OpenConns() int {
	var n int64
	for _, sh := range s.shards {
		n += sh.open.Load()
	}
	return int(n)
}

// ShardStat is a point-in-time view of one shard, for /metrics.
type ShardStat struct {
	Shard     int
	OpenConns int    // connections the shard is tracking
	Queued    int    // batches and barriers waiting for (or in) the worker
	Packets   uint64 // packets applied since start
}

// ShardStats snapshots every shard. Safe to call from any goroutine.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Shard:     i,
			OpenConns: int(sh.open.Load()),
			Queued:    int(sh.queued.Load()),
			Packets:   sh.packets.Load(),
		}
	}
	return out
}

// Feeder is one producer's handle into a Sharded assembler: it routes
// decoded packets to their flow's shard in bounded batches. A Feeder is not
// safe for concurrent use; each producer goroutine owns exactly one.
type Feeder struct {
	s      *Sharded
	idx    int
	qidx   int           // queue index: idx, or 0 when feeders share one queue
	pend   [][]*FeedItem // per-shard batch being accumulated
	closed bool
}

// Get returns a pooled FeedItem to decode the next frame into.
func (f *Feeder) Get() *FeedItem { return f.s.pool.Get().(*FeedItem) }

// Recycle returns an item that will not be fed (EOF, decode error).
func (f *Feeder) Recycle(it *FeedItem) { f.s.pool.Put(it) }

// Feed routes the item to its flow's shard. The item must carry a decoded
// Pkt; ownership passes to the shard worker, which recycles it.
func (f *Feeder) Feed(it *FeedItem) {
	si := shardOf(it.Pkt.Flow().Canonical(), len(f.s.shards))
	b := f.pend[si]
	if b == nil {
		b = getBatch()
	}
	b = append(b, it)
	if len(b) >= feedBatch {
		f.send(si, b)
		b = nil
	}
	f.pend[si] = b
}

func (f *Feeder) send(si int, b []*FeedItem) {
	sh := f.s.shards[si]
	sh.queued.Add(1)
	sh.in[f.qidx] <- shardMsg{op: opBatch, items: b}
}

// FlushBatches pushes every partially-filled batch to its shard, so a
// barrier or an idle pause observes all packets fed so far.
func (f *Feeder) FlushBatches() {
	for si, b := range f.pend {
		if len(b) > 0 {
			f.send(si, b)
			f.pend[si] = nil
		}
	}
}

// Close flushes pending batches and closes this feeder's queues; the Feeder
// must not be used afterwards. Once every feeder has closed, shard workers
// flush their assemblers and exit — collect the results with Wait.
func (f *Feeder) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.FlushBatches()
	if f.s.cfg.FlowDisjointFeeders {
		// Shared queues close when the last feeder does.
		if f.s.openFeeders.Add(-1) == 0 {
			for _, sh := range f.s.shards {
				close(sh.in[0])
			}
		}
		return
	}
	for _, sh := range f.s.shards {
		close(sh.in[f.idx])
	}
}

// batchPool recycles the item-batch slices flowing between feeders and
// workers.
var batchPool = sync.Pool{New: func() any {
	b := make([]*FeedItem, 0, feedBatch)
	return &b
}}

func getBatch() []*FeedItem {
	return (*batchPool.Get().(*[]*FeedItem))[:0]
}

func putBatch(b []*FeedItem) {
	b = b[:0]
	batchPool.Put(&b)
}

// FlowShard reports which of n shards the sharded front-end assigns the
// given (directed) flow to. Exported so external segment routers — the
// streaming telescope splits synthetic traffic into per-shard capture
// segments — can align their partition with the assembler's and keep every
// packet's decode local to the worker that will reassemble it.
func FlowShard(flow packet.Flow, n int) int {
	return shardOf(flow.Canonical(), n)
}

// shardOf hashes a canonical flow key to a shard with FNV-1a. The hash is
// deterministic across runs, so a capture replays onto the same shard
// layout every time — handy when debugging a single shard's behavior.
func shardOf(key packet.Flow, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [36]byte
	sa, da := key.Src.Addr.As16(), key.Dst.Addr.As16()
	copy(buf[0:16], sa[:])
	copy(buf[16:32], da[:])
	binary.BigEndian.PutUint16(buf[32:34], key.Src.Port)
	binary.BigEndian.PutUint16(buf[34:36], key.Dst.Port)
	h := uint64(offset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}
