package tcpasm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// Sharded front-end: Config.Shards independent Assemblers, each owned by
// one worker goroutine, fed over bounded channels by one or more reading
// goroutines (Feeders), each reading one time-ordered segment of a capture.
// A feeder routes each raw frame by its 4-tuple, read at fixed offsets,
// which sends every packet of a connection to the same shard; the shard
// decodes it and keys its connection table by the feeder's flow hash. Each
// shard sees complete conversations and the shards never share state on the
// hot path.
//
// Determinism. The sessions emitted are byte-identical to one serial
// Assembler's over the same packets, for any shard count, provided capture
// timestamps are non-decreasing in feed order (pcap files are written in
// capture order):
//
//   - Flow affinity: all packets of a connection land on one shard, in their
//     original relative order (feeders preserve order; workers consume each
//     feeder's queue FIFO, and feeders are consumed in segment order).
//   - Idle handling is content-driven, not schedule-driven: Feed itself
//     splits a connection whose gap reaches IdleTimeout, so the per-shard
//     Advance cadence (which differs from the serial scan's) can only change
//     *when* an idle session is emitted, never its contents.
//   - Order is the consumer's: every session leaves through Config.Emit, in
//     completion order across shards. CompareSessions is a total order, so
//     a consumer that sorts what it collected gets the serial path's order.
//
// One output discipline, Emit, and two feeding patterns:
//
//	scan (N feeders):       feeders Feed until EOF and Close; Wait returns
//	                        once every session has been emitted.
//	streaming (one feeder): the feeder interleaves Feed with Drain / Flush
//	                        barriers (ingest's idle flushes and
//	                        checkpoints), each an acknowledgement that every
//	                        frame fed before it has been applied and its
//	                        sessions emitted.
type Sharded struct {
	cfg    Config
	shards []*shard
	fdrs   []*Feeder
	wg     sync.WaitGroup
}

const (
	// feedBatch is how many frames a feeder accumulates per shard before
	// handing the batch over; batching amortizes channel operations.
	feedBatch = 128
	// batchBytes is the other send trigger: a batch goes once its packed
	// frames reach this many bytes, so large frames cannot inflate a batch
	// to feedBatch × MTU.
	batchBytes = 64 << 10
	// queueBatches bounds in-flight batches per (feeder, shard) pair — the
	// backpressure that keeps a fast decoder from outrunning reassembly.
	// A queued batch holds at most feedBatch frames and less than
	// batchBytes plus one frame of packed bytes, so the frames queued per
	// pair stay under queueBatches × (batchBytes + one frame) ≈ 256 KiB;
	// on small-frame captures (72 B mean) the frame count binds first, at
	// ≈ 36 KiB. It is small on purpose: once frame synthesis got cheap the
	// producer keeps every queue full, and at 32 the window alone doubled
	// stream_study's heap_p90 (≈48 → ≈95 MiB), while 2, 4 and 8 ran at the
	// same throughput (4 measured ≈26 MiB).
	queueBatches = 4
	// advanceEvery matches the serial scan cadence: each shard reclaims
	// idle-connection memory after this many applied packets.
	advanceEvery = 4096
)

// FeedItem is a producer's scratch for one frame: the producer fills Buf
// with the raw frame (reusing its capacity) and TS with its capture time and
// hands it to Feeder.Feed, which hashes the 4-tuple read from Buf — the
// frame's one flow hash — and copies Buf, TS and the hash into the shard's
// pending batch. The shard decodes and checksum-checks the copy — the
// frame's one decode — so the item never leaves the producer and may be
// reused as soon as Feed returns. Feed never reads Pkt: it is decode scratch
// for producers that reassemble in place.
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

// shardMsg is one unit of work on a shard queue: a frame batch, or a
// control barrier the shard acknowledges on ack once its sessions are
// emitted.
type shardMsg struct {
	op    ctlOp
	batch *frameBatch
	now   time.Time
	ack   *sync.WaitGroup
}

// frameBatch packs the raw frames bound for one shard back to back: frame i
// is buf[ends[i-1]:ends[i]] (buf[:ends[0]] for the first), was captured at
// ts[i] and has the flow word words[i] that routed it, which keys the
// shard's connection table. Whole batches are recycled through batchPool.
type frameBatch struct {
	buf   []byte
	ends  []int
	ts    []time.Time
	words []uint64
}

var batchPool = sync.Pool{New: func() any {
	return &frameBatch{
		buf:   make([]byte, 0, 16<<10),
		ends:  make([]int, 0, feedBatch),
		ts:    make([]time.Time, 0, feedBatch),
		words: make([]uint64, 0, feedBatch),
	}
}}

type shard struct {
	asm *Assembler
	in  []chan shardMsg // one queue per feeder, consumed in feeder order

	open       atomic.Int64  // conns currently tracked (gauge)
	queued     atomic.Int64  // messages sent but not yet applied (gauge)
	packets    atomic.Uint64 // packets applied since start
	decodeErrs atomic.Uint64 // applied frames that did not decode

	// Worker-local state.
	pkt     packet.Packet // each batched frame is decoded into this, once
	applied int           // packets since the last self-advance
	maxTS   time.Time     // newest capture timestamp seen
}

// NewSharded starts cfg.Shards shard workers and creates one Feeder per
// producer (feeders < 1 is treated as 1). Each producer goroutine must own
// exactly one Feeder; producers map to time-ordered capture segments, feeder
// 0 being the earliest. cfg.Emit must be set.
func NewSharded(cfg Config, feeders int) *Sharded {
	cfg = cfg.withDefaults()
	if feeders < 1 {
		feeders = 1
	}
	s := &Sharded{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{asm: NewAssembler(cfg)}
		for f := 0; f < feeders; f++ {
			sh.in = append(sh.in, make(chan shardMsg, queueBatches))
		}
		s.shards = append(s.shards, sh)
	}
	for f := 0; f < feeders; f++ {
		s.fdrs = append(s.fdrs, &Feeder{s: s, idx: f, pend: make([]*frameBatch, len(s.shards))})
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.run(sh)
	}
	return s
}

// Feeder returns producer i's feeder handle.
func (s *Sharded) Feeder(i int) *Feeder { return s.fdrs[i] }

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
	s.emit(sh)
	sh.open.Store(0)
}

// emit hands over whatever the shard's assembler has completed.
func (s *Sharded) emit(sh *shard) {
	if out := sh.asm.Sessions(); len(out) > 0 {
		s.cfg.Emit(out)
	}
}

func (s *Sharded) apply(sh *shard, msg shardMsg) {
	sh.queued.Add(-1)
	switch msg.op {
	case opBatch:
		b := msg.batch
		start := 0
		for i, end := range b.ends {
			frame := b.buf[start:end]
			start = end
			// The frame's only decode and checksum check: the feeder
			// routed it by raw offsets. Every frame that decodes had its
			// 4-tuple read there, so words[i] is its flowWord.
			if packet.DecodeInto(&sh.pkt, frame) != nil {
				sh.decodeErrs.Add(1)
				continue
			}
			ts := b.ts[i]
			if ts.After(sh.maxTS) {
				sh.maxTS = ts
			}
			sh.asm.feed(ts, ts.UnixNano(), &sh.pkt, b.words[i])
		}
		n := len(b.ends)
		b.buf, b.ends, b.ts, b.words = b.buf[:0], b.ends[:0], b.ts[:0], b.words[:0]
		batchPool.Put(b)
		sh.packets.Add(uint64(n))
		sh.applied += n
		if sh.applied >= advanceEvery {
			sh.applied = 0
			// Content-neutral under the Feed-level idle split: this only
			// reclaims memory and emits already-decided sessions early. It
			// relies on each shard's applied timestamps being non-decreasing,
			// which time-ordered feeders give.
			sh.asm.Advance(sh.maxTS)
		}
	case opAdvance:
		sh.asm.Advance(msg.now)
	case opFlush:
		sh.asm.Flush()
	}
	// Hand over whatever this message completed (closed connections plus
	// anything an Advance or Flush decided), so downstream matching overlaps
	// with reassembly and no shard accumulates its output.
	s.emit(sh)
	sh.open.Store(int64(sh.asm.OpenConns()))
	if msg.ack != nil {
		msg.ack.Done()
	}
}

// Drain advances every shard's idle horizon to now and emits every session
// that completes — the sharded counterpart of Assembler.Drain. Barrier
// semantics: it returns once every frame fed before the call has been
// applied and its sessions emitted. Streaming pattern only: it must be
// called from the goroutine owning the sole feeder.
func (s *Sharded) Drain(now time.Time) {
	s.barrier(shardMsg{op: opAdvance, now: now})
}

// Flush closes every open connection on every shard and emits the sessions
// — the sharded counterpart of Assembler.Flush. Same barrier semantics and
// calling constraints as Drain.
func (s *Sharded) Flush() {
	s.barrier(shardMsg{op: opFlush})
}

func (s *Sharded) barrier(msg shardMsg) {
	s.fdrs[0].FlushBatches()
	var ack sync.WaitGroup
	ack.Add(len(s.shards))
	msg.ack = &ack
	for _, sh := range s.shards {
		sh.queued.Add(1)
		sh.in[0] <- msg
	}
	ack.Wait()
}

// Wait blocks until every shard worker has exited — every Feeder must have
// been Closed first. Open connections are flushed at worker exit, so every
// session has been emitted when Wait returns.
func (s *Sharded) Wait() { s.wg.Wait() }

// DecodeErrors reports how many routed frames failed to decode on their
// shard. The count is exact once every frame fed so far has been applied:
// after Wait, or after a Drain or Flush barrier.
func (s *Sharded) DecodeErrors() int {
	var n uint64
	for _, sh := range s.shards {
		n += sh.decodeErrs.Load()
	}
	return int(n)
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

// Feeder is one producer's handle into a Sharded assembler: it routes raw
// frames to their flow's shard in bounded batches. A Feeder is not
// safe for concurrent use; each producer goroutine owns exactly one.
type Feeder struct {
	s      *Sharded
	idx    int
	item   FeedItem      // the scratch Get lends; it never leaves this feeder
	pend   []*frameBatch // per-shard batch being accumulated
	closed bool
}

// Get returns the feeder's scratch FeedItem to read the next frame into.
// Every call returns the same item.
func (f *Feeder) Get() *FeedItem { return &f.item }

// Recycle is a no-op: Feed copies the frame, so an item is never owned by
// anyone but its feeder. It stays only because the benchmark's traced
// driver (benchmark/scan_traced.go) still calls it.
func (f *Feeder) Recycle(*FeedItem) {}

// Feed copies the item's frame into the pending batch of its flow's shard,
// chosen from Buf's raw bytes (see routeFrame), together with TS and the
// flow word; Pkt is not read. The caller may reuse the item once Feed
// returns.
func (f *Feeder) Feed(it *FeedItem) {
	si, h := routeFrame(it.Buf, len(f.s.shards))
	b := f.pend[si]
	if b == nil {
		b = batchPool.Get().(*frameBatch)
		f.pend[si] = b
	}
	b.buf = append(b.buf, it.Buf...)
	b.ends = append(b.ends, len(b.buf))
	b.ts = append(b.ts, it.TS)
	b.words = append(b.words, h)
	if len(b.ends) >= feedBatch || len(b.buf) >= batchBytes {
		f.send(si, b)
		f.pend[si] = nil
	}
}

func (f *Feeder) send(si int, b *frameBatch) {
	sh := f.s.shards[si]
	sh.queued.Add(1)
	sh.in[f.idx] <- shardMsg{op: opBatch, batch: b}
}

// FlushBatches pushes every partially-filled batch to its shard, so a
// barrier or an idle pause observes all packets fed so far.
func (f *Feeder) FlushBatches() {
	for si, b := range f.pend {
		if b != nil {
			f.send(si, b)
			f.pend[si] = nil
		}
	}
}

// Close flushes pending batches and closes this feeder's queues; the Feeder
// must not be used afterwards. Once every feeder has closed, shard workers
// flush their assemblers, emit the sessions and exit — Wait for them.
func (f *Feeder) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.FlushBatches()
	for _, sh := range f.s.shards {
		close(sh.in[f.idx])
	}
}

// FlowShard reports which of n shards the sharded front-end assigns the
// given (directed) flow to. Both directions of a connection map alike, so
// the streaming telescope uses it to split synthetic traffic into
// flow-partitioned capture segments.
func FlowShard(flow packet.Flow, n int) int {
	return shardOf(flow, n)
}

// shardOf hashes a flow to a shard: the top 32 bits of its flow word scale
// to [0, n) with a multiply, not a divide. The hash is deterministic across
// runs, so a capture replays onto the same shard layout every time — handy
// when debugging a single shard's behavior.
func shardOf(f packet.Flow, n int) int {
	if n <= 1 {
		return 0
	}
	return scaleShard(flowWord(f), n)
}

func scaleShard(h uint64, n int) int { return int(h >> 32 * uint64(n) >> 32) }

// flowWord is a connection's symmetric hash, the shard router's and the
// Assembler's connection-table key. Each endpoint is mixed into one word and
// the two words are added, so both directions of a connection hash alike
// without ordering the endpoints first, and one final mix spreads the sum.
func flowWord(f packet.Flow) uint64 {
	return mix64(endpointWord(f.Src) + endpointWord(f.Dst))
}

// endpointWord mixes an endpoint's address and port into one word. The
// port sits in the top 16 bits of the address's low word, which are zero
// for an IPv4 (v4-mapped) address. IPv4 takes a shortcut to the same word.
func endpointWord(e packet.Endpoint) uint64 {
	if e.Addr.Is4() {
		a := e.Addr.As4()
		return v4Word(binary.BigEndian.Uint32(a[:]), e.Port)
	}
	a := e.Addr.As16()
	hi := binary.BigEndian.Uint64(a[:8])
	lo := binary.BigEndian.Uint64(a[8:])
	return mix64(hi*0x9e3779b97f4a7c15 ^ lo ^ uint64(e.Port)<<48)
}

// v4Word is endpointWord of an IPv4 address, given as its big-endian word:
// the v4-mapped form ::ffff:a.b.c.d has a zero high word and a low word of
// 0xffff<<32 | addr.
func v4Word(addr uint32, port uint16) uint64 {
	return mix64(uint64(port)<<48 | 0xffff<<32 | uint64(addr))
}

// routeFrame hashes a raw Ethernet/IPv4/TCP frame's flow without decoding
// it — the EtherType, IHL, both addresses and both ports sit at fixed
// offsets — and picks its shard of n. For every frame packet.DecodeInto
// accepts, h is flowWord of the decoded flow, and so si is what shardOf
// says. A frame too short or foreign to read gets h = 0 and shard 0, where
// its decode fails and is counted.
func routeFrame(frame []byte, n int) (si int, h uint64) {
	const eth, ipMin = 14, 20
	if len(frame) < eth+ipMin || binary.BigEndian.Uint16(frame[12:]) != packet.EtherTypeIPv4 {
		return 0, 0
	}
	ip := frame[eth:]
	hl := int(ip[0]&0x0f) * 4
	if hl < ipMin || len(ip) < hl+4 {
		return 0, 0
	}
	src := v4Word(binary.BigEndian.Uint32(ip[12:]), binary.BigEndian.Uint16(ip[hl:]))
	dst := v4Word(binary.BigEndian.Uint32(ip[16:]), binary.BigEndian.Uint16(ip[hl+2:]))
	h = mix64(src + dst)
	return scaleShard(h, n), h
}

// mix64 is murmur3's 64-bit finalizer: every input bit flips each output
// bit with probability ≈ ½.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
