// Package ingest is the daemon's streaming capture pipeline: it tails a
// directory of rotating pcap segments as a telescope writes them,
// incrementally reassembles TCP sessions, evaluates them against the dated
// IDS ruleset in bounded batches, and appends the attributed events to an
// eventstore — the continuous counterpart of the one-shot ids.ScanCapture
// batch path, producing the identical event set for the same capture.
//
// Shape:
//
//	tailer goroutine:   segments -> zero-copy decode -> flow-sharded tcpasm
//	shard workers:      per-flow reassembly (tcpasm.Sharded, DecodeShards)
//	matcher goroutine:  session batches -> ids.MatchStage.MatchAll -> store
//
// The two stages are joined by a bounded channel, so a slow matcher
// backpressures the tailer instead of buffering unboundedly. The matcher is
// a single goroutine (parallelism lives in its long-lived match stage), so
// events reach the store in session order. Close drains: everything already
// on disk is consumed, open connections are flushed, the final batches are
// matched and appended, then the goroutines exit.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/registry"
	"repro/internal/tcpasm"
)

// Config wires a Pipeline.
type Config struct {
	// Dir is the watch directory; Prefix the rotating-segment prefix
	// (RotatingWriter naming: prefix-000001.pcap). Prefix defaults to
	// "dscope".
	Dir    string
	Prefix string
	// Engine evaluates sessions. Required unless EngineSource is set.
	Engine *ids.Engine
	// EngineSource, when set, is consulted at each batch boundary for the
	// engine to evaluate against — the registry's hot-reload hook. The swap
	// is batch-atomic: a batch is matched entirely under one engine, so no
	// session is dropped or double-matched across a reload. A nil return
	// falls back to Engine.
	EngineSource func() *ids.Engine
	// Digests, when set, receives one digest per session — matched or not —
	// so a later ruleset publication can re-attribute stored history.
	// Digest durability rides the checkpoint cadence: the sink is synced
	// before a checkpoint persists.
	Digests DigestSink
	// Store receives the events. Either Store or Sink is required; when both
	// are set, Sink wins.
	Store *eventstore.Store
	// Sink, when set, receives event batches instead of a local store — a
	// sensor node points this at its fleet shipper so matched events head
	// upstream rather than to disk-local analysis.
	Sink Sink
	// CheckpointDir holds the drained-position checkpoint. Empty means the
	// Store's directory (checkpointing is disabled for a Sink-only pipeline
	// with no CheckpointDir).
	CheckpointDir string
	// FS is the filesystem checkpoints are written against. Nil means the
	// real one; the simulation harness substitutes a fault.SimFS. Capture
	// segments are always read from the real filesystem — they are the
	// telescope's input, not this process's durable state.
	FS fault.FS
	// PollInterval is how often the tailer re-checks for new bytes when it
	// has caught up. Zero means 100ms.
	PollInterval time.Duration
	// FlushIdle flushes still-open connections after the watch directory
	// has been quiet for this long (wall clock) — sessions that will never
	// see a FIN still reach the IDS. Zero means 2s.
	FlushIdle time.Duration
	// BatchSessions is the target sessions per match batch. Zero means 256.
	BatchSessions int
	// MatchWorkers is the worker count of the pipeline's match stage (see
	// ids.MatchStage). Zero selects GOMAXPROCS.
	MatchWorkers int
	// DecodeShards overrides Assembler.Shards for the flow-sharded
	// reassembly stage (see tcpasm.Sharded); zero defers to Assembler.Shards
	// and its default of min(8, GOMAXPROCS).
	DecodeShards int
	// Assembler tunes TCP reassembly (stream caps, idle horizon in capture
	// time).
	Assembler tcpasm.Config
}

// Sink receives matched event batches. *eventstore.Store satisfies it, as
// does the fleet shipper.
type Sink interface {
	AppendBatch(events []ids.Event) error
}

// DigestSink receives per-session digests at match time, with the engine
// that labelled them. *registry.Registry satisfies it.
type DigestSink interface {
	RecordDigests(eng *ids.Engine, ds []registry.Digest) error
	SyncDigests() error
	SampleLimit() int
}

// syncer is implemented by sinks with durable state (*eventstore.Store, the
// fleet shipper). The checkpoint never advances past events such a sink has
// not yet fsynced: a checkpoint that outran the sink would skip re-ingesting
// capture whose events were lost with the page cache.
type syncer interface{ Sync() error }

// queueDepth bounds the batches in flight between tailer and matcher.
const queueDepth = 4

func (c Config) withDefaults() Config {
	if c.Prefix == "" {
		c.Prefix = "dscope"
	}
	if c.Sink == nil && c.Store != nil {
		c.Sink = c.Store
	}
	if c.CheckpointDir == "" && c.Store != nil {
		c.CheckpointDir = c.Store.Dir()
	}
	if c.PollInterval == 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	if c.FlushIdle == 0 {
		c.FlushIdle = 2 * time.Second
	}
	if c.BatchSessions == 0 {
		c.BatchSessions = 256
	}
	return c
}

// Metrics is a point-in-time view of pipeline progress, the numbers behind
// the daemon's /metrics endpoint.
type Metrics struct {
	// Counters since start.
	Packets uint64
	// DecodeErrors counts frames that failed to decode on the reassembly
	// shards; it covers every packet read once the pipeline is idle.
	DecodeErrors uint64
	Sessions     uint64
	Events       uint64
	Batches      uint64
	SegmentsDone uint64
	SkippedBytes uint64 // trailing garbage in completed segments
	// AmbiguousSessions counts sessions the reassembler flagged for
	// conflicting overlapping retransmits — evidence of evasion games
	// against the capture front-end.
	AmbiguousSessions uint64
	// Gauges.
	OpenConns       int   // connections still assembling
	PendingSessions int   // assembled sessions not yet handed to the matcher
	QueuedBatches   int   // batches waiting for the matcher
	PendingBytes    int64 // capture bytes on disk not yet consumed
	// LastBatchLatency is the match+append time of the most recent batch.
	LastBatchLatency time.Duration
}

// Lag is the total unprocessed backlog: bytes on disk plus work buffered
// inside the pipeline, in rough units of "things left to do". Zero means
// every byte written so far has flowed through to the store.
func (m Metrics) Lag() int64 {
	return m.PendingBytes + int64(m.OpenConns) + int64(m.PendingSessions) + int64(m.QueuedBatches)
}

// Idle reports whether the pipeline has fully caught up with the on-disk
// capture: nothing pending at any stage.
func (m Metrics) Idle() bool { return m.Lag() == 0 }

// Pipeline is a running ingest pipeline.
type Pipeline struct {
	cfg    Config
	asm    *tcpasm.Sharded
	feeder *tcpasm.Feeder // owned by the tailer goroutine
	stage  *ids.MatchStage

	emitMu  sync.Mutex
	emitted []tcpasm.Session // what the shards emitted since the last barrier

	batchCh chan []tcpasm.Session
	stop    chan struct{}
	tailerD chan struct{}
	matchD  chan struct{}

	packets      atomic.Uint64
	sessions     atomic.Uint64
	events       atomic.Uint64
	shipped      atomic.Uint64 // batches handed to the matcher
	batches      atomic.Uint64 // batches fully matched and appended
	segmentsDone atomic.Uint64
	skippedBytes atomic.Uint64
	ambiguous    atomic.Uint64
	openConns    atomic.Int64
	pendingSess  atomic.Int64
	consumed     atomic.Int64 // bytes consumed across all segments
	lastBatchNs  atomic.Int64

	errMu    sync.Mutex
	firstErr error

	// Checkpoint plumbing: the tailer proposes a candidate at each drain-
	// consistent point (idle flush, final drain) along with how many batches
	// had been shipped by then; the checkpoint is persisted once the matcher
	// has applied that many, by whichever side gets there second.
	ckptMu      sync.Mutex
	candCkpt    checkpoint
	candShipped uint64
	savedCkpt   checkpoint

	closeOnce sync.Once
	closeErr  error
}

// Start begins tailing. The returned Pipeline runs until Close.
func Start(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if (cfg.Engine == nil && cfg.EngineSource == nil) || cfg.Sink == nil {
		return nil, errors.New("ingest: Config needs an Engine (or EngineSource) and a Store or Sink")
	}
	if cfg.Dir == "" {
		return nil, errors.New("ingest: Config needs a watch Dir")
	}
	if _, err := os.Stat(cfg.Dir); err != nil {
		return nil, fmt.Errorf("ingest: watch dir: %w", err)
	}
	acfg := cfg.Assembler
	if cfg.DecodeShards != 0 {
		acfg.Shards = cfg.DecodeShards
	}
	p := &Pipeline{
		cfg:     cfg,
		stage:   ids.NewMatchStage(cfg.MatchWorkers),
		batchCh: make(chan []tcpasm.Session, queueDepth),
		stop:    make(chan struct{}),
		tailerD: make(chan struct{}),
		matchD:  make(chan struct{}),
	}
	acfg.Emit = func(batch []tcpasm.Session) {
		p.emitMu.Lock()
		p.emitted = append(p.emitted, batch...)
		p.emitMu.Unlock()
	}
	p.asm = tcpasm.NewSharded(acfg, 1)
	p.feeder = p.asm.Feeder(0)
	go p.tailer()
	go p.matcher()
	return p, nil
}

// Err returns the first fatal pipeline error (store append failure,
// unreadable segment), or nil.
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

func (p *Pipeline) fail(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// Close drains and stops the pipeline: all bytes already on disk are
// consumed, open connections flush, and the final events land in the store
// before Close returns. Safe to call more than once.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.tailerD
		<-p.matchD
		// Every drained event is now applied; the final candidate from the
		// drain is safe to persist.
		p.maybeCheckpoint()
		p.closeErr = p.Err()
	})
	return p.closeErr
}

// ShardStats snapshots the reassembly shards (open connections, queue
// depth, packets applied) for the daemon's /metrics endpoint.
func (p *Pipeline) ShardStats() []tcpasm.ShardStat { return p.asm.ShardStats() }

// Metrics returns a consistent-enough view of pipeline progress. The
// PendingBytes gauge stats the watch directory, so it reflects writers that
// appended after the last poll.
func (p *Pipeline) Metrics() Metrics {
	m := Metrics{
		Packets:           p.packets.Load(),
		DecodeErrors:      uint64(p.asm.DecodeErrors()),
		Sessions:          p.sessions.Load(),
		Events:            p.events.Load(),
		Batches:           p.batches.Load(),
		SegmentsDone:      p.segmentsDone.Load(),
		SkippedBytes:      p.skippedBytes.Load(),
		AmbiguousSessions: p.ambiguous.Load(),
		OpenConns:         int(p.openConns.Load()),
		PendingSessions:   int(p.pendingSess.Load()),
		LastBatchLatency:  time.Duration(p.lastBatchNs.Load()),
	}
	// Loading done before shipped keeps the difference non-negative; the
	// counter pair (rather than len(batchCh)) also covers the batch the
	// matcher is working on right now.
	done := p.batches.Load()
	m.QueuedBatches = int(p.shipped.Load() - done)
	var onDisk int64
	if segs, err := pcapio.Segments(p.cfg.Dir, p.cfg.Prefix); err == nil {
		for _, seg := range segs {
			if info, err := os.Stat(seg); err == nil {
				onDisk += info.Size()
			}
		}
	}
	if pending := onDisk - p.consumed.Load(); pending > 0 {
		m.PendingBytes = pending
	}
	return m
}

// tailState tracks the tailer's position in the segment sequence.
type tailState struct {
	segIdx  int
	file    *os.File
	tail    *pcapio.TailReader
	path    string
	lastOff int64
	lastTS  time.Time
	pending []tcpasm.Session
	ckpt    checkpoint
}

// checkpoint records a drain-consistent ingest position: every segment
// sorting before Segment is fully consumed, and Segment itself is consumed
// through Offset. One is persisted only when the assembler has been flushed,
// every session handed to the matcher has been matched and appended, and a
// durable sink has fsynced — which holds at each idle flush while running
// and at the final drain on Close — so resuming from it is exact.
//
// After a hard crash (kill -9, power loss) the newest persisted checkpoint
// stands and the capture after it is re-ingested: its events appear again,
// and when the sink is a fleet shipper they re-ship under fresh sequence
// numbers the coordinator cannot recognize as duplicates. End-to-end
// exactly-once therefore holds across clean shutdowns; a hard crash can
// duplicate at most the window since the last idle-flush checkpoint.
type checkpoint struct {
	Segment string // basename of the last segment read
	Offset  int64  // bytes of it consumed
}

// checkpointPath keeps the position alongside the sink's own durable state
// (the store directory, or a sensor's state directory), one file per watch
// prefix. Empty means checkpointing is off.
func (p *Pipeline) checkpointPath() string {
	if p.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(p.cfg.CheckpointDir, "INGEST-"+p.cfg.Prefix)
}

func (p *Pipeline) loadCheckpoint() (checkpoint, bool) {
	path := p.checkpointPath()
	if path == "" {
		return checkpoint{}, false
	}
	b, err := fault.Or(p.cfg.FS).ReadFile(path)
	if err != nil {
		return checkpoint{}, false
	}
	seg, offStr, ok := strings.Cut(strings.TrimSpace(string(b)), " ")
	if !ok {
		return checkpoint{}, false
	}
	off, err := strconv.ParseInt(offStr, 10, 64)
	if err != nil || seg == "" || off < 0 {
		return checkpoint{}, false
	}
	return checkpoint{Segment: seg, Offset: off}, true
}

// saveCheckpoint atomically replaces the checkpoint file. A torn or empty
// checkpoint would read as "no checkpoint" and re-ingest the whole capture —
// every event since the beginning would re-ship under fresh sequence numbers
// and apply twice — which is why this goes through fault.WriteFileAtomic.
func (p *Pipeline) saveCheckpoint(ck checkpoint) error {
	path := p.checkpointPath()
	if ck.Segment == "" || path == "" {
		return nil
	}
	data := fmt.Sprintf("%s %d\n", ck.Segment, ck.Offset)
	return fault.WriteFileAtomic(fault.Or(p.cfg.FS), path+".tmp", path, []byte(data))
}

// noteCheckpoint records a candidate position. The caller (the tailer)
// guarantees the drain-consistency half: the assembler is flushed and every
// session from capture before ck has been handed to the matcher. The shipped
// count captures the other half — once that many batches are applied, the
// candidate is exact.
func (p *Pipeline) noteCheckpoint(ck checkpoint) {
	if ck.Segment == "" {
		return
	}
	p.ckptMu.Lock()
	p.candCkpt = ck
	p.candShipped = p.shipped.Load()
	p.ckptMu.Unlock()
	// The matcher may already have applied everything (and so will never
	// call maybeCheckpoint again for this candidate) — try here too.
	p.maybeCheckpoint()
}

// maybeCheckpoint persists the candidate once the matcher has applied every
// batch it covers, syncing a durable sink first. Called by the tailer right
// after proposing a candidate and by the matcher after each batch; the mutex
// makes the save single-writer.
func (p *Pipeline) maybeCheckpoint() {
	if p.Err() != nil {
		return // a failed append may sit below the candidate; don't skip it
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.candCkpt.Segment == "" || p.candCkpt == p.savedCkpt || p.batches.Load() < p.candShipped {
		return
	}
	if s, ok := p.cfg.Sink.(syncer); ok {
		if err := s.Sync(); err != nil {
			p.fail(err)
			return
		}
	}
	if p.cfg.Digests != nil {
		if err := p.cfg.Digests.SyncDigests(); err != nil {
			p.fail(err)
			return
		}
	}
	if err := p.saveCheckpoint(p.candCkpt); err != nil {
		p.fail(err)
		return
	}
	p.savedCkpt = p.candCkpt
}

// restore positions the tailer at the stored checkpoint: fully-consumed
// segments are skipped outright, and the checkpointed segment is fast-
// forwarded record by record without feeding the assembler (its sessions
// already flowed to the store during the drain that wrote the checkpoint).
func (p *Pipeline) restore(st *tailState) error {
	ck, ok := p.loadCheckpoint()
	if !ok {
		return nil
	}
	segs, err := pcapio.Segments(p.cfg.Dir, p.cfg.Prefix)
	if err != nil {
		return err
	}
	idx := -1
	for i, seg := range segs {
		if filepath.Base(seg) == ck.Segment {
			idx = i
			break
		}
	}
	if idx < 0 {
		// The checkpointed segment is gone (rotated away, or a fresh watch
		// dir): nothing to resume against, ingest from the beginning.
		return nil
	}
	for i := 0; i < idx; i++ {
		if info, err := os.Stat(segs[i]); err == nil {
			p.consumed.Add(info.Size())
		}
	}
	st.segIdx = idx
	st.path = segs[idx]
	f, err := os.Open(st.path)
	if err != nil {
		return err
	}
	st.file = f
	st.tail = pcapio.NewTailReader(f)
	for st.tail.Offset() < ck.Offset {
		if _, err := st.tail.Next(); err != nil {
			if err == io.EOF {
				break // segment shrank or checkpoint past EOF; resume here
			}
			f.Close()
			st.file, st.tail = nil, nil
			return fmt.Errorf("ingest: resuming %s: %w", st.path, err)
		}
	}
	st.lastOff = st.tail.Offset()
	p.consumed.Add(st.lastOff)
	return nil
}

func (p *Pipeline) tailer() {
	defer close(p.tailerD)
	defer close(p.batchCh)
	st := &tailState{}
	defer func() {
		if st.file != nil {
			st.file.Close()
		}
	}()
	if err := p.restore(st); err != nil {
		p.fail(err)
		p.drain(st)
		return
	}
	lastProgress := time.Now()
	for {
		select {
		case <-p.stop:
			p.drain(st)
			return
		default:
		}
		progress, err := p.pump(st, false)
		if err != nil {
			p.fail(err)
			p.drain(st)
			return
		}
		if progress {
			lastProgress = time.Now()
			continue
		}
		// Caught up. If the directory has been quiet long enough, flush
		// connections idling in the assembler and ship even a partial
		// batch — neither should be held hostage by a stalled writer. The
		// Flush barrier also settles any batches still queued to shard
		// workers, so the checkpoint below is exact.
		if time.Since(lastProgress) >= p.cfg.FlushIdle {
			p.asm.Flush()
			p.emit(st)
			p.flushPending(st, 0)
			// The assembler is empty and every session is with the matcher:
			// this position is drain-consistent, so a crash past this point
			// re-ingests only capture newer than the idle flush.
			p.noteCheckpoint(st.ckpt)
		}
		select {
		case <-p.stop:
			p.drain(st)
			return
		case <-time.After(p.cfg.PollInterval):
		}
	}
}

// drain consumes every byte already on disk, flushes the assembler, ships
// all remaining sessions, and retires the shard workers.
func (p *Pipeline) drain(st *tailState) {
	for {
		progress, err := p.pump(st, true)
		if err != nil {
			p.fail(err)
			break
		}
		if !progress {
			break
		}
	}
	// Shut the shard workers down: they flush every open connection and
	// emit the sessions before they exit.
	p.feeder.Close()
	p.asm.Wait()
	p.emit(st)
	p.flushPending(st, 0)
	// The assembler is empty and every session has been handed to the
	// matcher; the position persists once the matcher drains too (Close
	// calls maybeCheckpoint again after both goroutines exit).
	p.noteCheckpoint(st.ckpt)
}

// pump consumes currently-available records, feeding the assembler and
// emitting full batches. It reports whether any byte of progress was made.
// During final drain the last segment is treated as complete.
func (p *Pipeline) pump(st *tailState, draining bool) (bool, error) {
	segs, err := pcapio.Segments(p.cfg.Dir, p.cfg.Prefix)
	if err != nil {
		return false, err
	}
	if st.tail == nil {
		if st.segIdx >= len(segs) {
			return false, nil
		}
		st.path = segs[st.segIdx]
		f, err := os.Open(st.path)
		if err != nil {
			return false, err
		}
		st.file = f
		st.tail = pcapio.NewTailReader(f)
		st.lastOff = 0
	}
	// One bounded slice of the shared record loop: read each record into the
	// feeder's one item and route it raw to its flow's shard, which decodes
	// it and counts the frames that do not decode. No per-record allocation.
	// The bound keeps Drain barriers and stop checks regular under a backlog.
	packets, lastTS, err := ids.FeedRecords(st.tail, p.feeder.Get(), p.feeder.Feed, 8192)
	p.packets.Add(uint64(packets))
	if packets > 0 {
		st.lastTS = lastTS
	}
	caughtUp := err == io.EOF
	if err != nil && !caughtUp {
		return false, fmt.Errorf("ingest: %s: %w", st.path, err)
	}
	progress := false
	if off := st.tail.Offset(); off > st.lastOff {
		p.consumed.Add(off - st.lastOff)
		st.lastOff = off
		progress = true
	}
	st.ckpt = checkpoint{Segment: filepath.Base(st.path), Offset: st.lastOff}
	// Segment completion: the writer has moved on once a newer segment
	// exists (RotatingWriter appends only to the newest); during the final
	// drain the last segment is complete by definition. Only then does a
	// remainder past the last whole record mean a torn tail (writer crash)
	// rather than an in-flight append — skip it, the way the eventstore
	// truncates garbage on open.
	complete := st.segIdx+1 < len(segs) || draining
	if caughtUp && complete {
		if rem, err := st.tail.Remainder(); err == nil && rem > 0 {
			p.skippedBytes.Add(uint64(rem))
			p.consumed.Add(rem)
			st.ckpt.Offset += rem
		}
		st.file.Close()
		st.file, st.tail = nil, nil
		p.segmentsDone.Add(1)
		st.segIdx++
		if st.segIdx < len(segs) {
			progress = true // a further segment is ready right now
		}
	}
	// Hand completed sessions downstream. Drain is a shard barrier: cheap
	// relative to the up-to-8192 records fed above.
	if !st.lastTS.IsZero() {
		p.asm.Drain(st.lastTS)
		p.emit(st)
	}
	return progress, nil
}

// emit queues what the shards emitted up to a Drain, Flush or Wait barrier,
// sorted so the batches do not depend on their schedule, and ships any full
// batches.
func (p *Pipeline) emit(st *tailState) {
	p.emitMu.Lock()
	sessions := p.emitted
	p.emitted = nil
	p.emitMu.Unlock()
	tcpasm.SortSessions(sessions)
	if len(sessions) > 0 {
		p.sessions.Add(uint64(len(sessions)))
		st.pending = append(st.pending, sessions...)
		p.pendingSess.Store(int64(len(st.pending)))
	}
	p.openConns.Store(int64(p.asm.OpenConns()))
	p.flushPending(st, p.cfg.BatchSessions)
}

// flushPending ships batches while at least min sessions are pending (min 0
// ships everything). The send blocks when the matcher is behind — that is
// the backpressure.
func (p *Pipeline) flushPending(st *tailState, min int) {
	for len(st.pending) > 0 && len(st.pending) >= min {
		n := p.cfg.BatchSessions
		if n > len(st.pending) {
			n = len(st.pending)
		}
		batch := make([]tcpasm.Session, n)
		copy(batch, st.pending[:n])
		st.pending = st.pending[n:]
		p.pendingSess.Store(int64(len(st.pending)))
		p.shipped.Add(1)
		p.batchCh <- batch
	}
}

// engine resolves the engine for the next batch: the EngineSource (hot
// reload) when present, the static Engine otherwise.
func (p *Pipeline) engine() *ids.Engine {
	if p.cfg.EngineSource != nil {
		if e := p.cfg.EngineSource(); e != nil {
			return e
		}
	}
	return p.cfg.Engine
}

func (p *Pipeline) matcher() {
	defer close(p.matchD)
	defer p.stage.Close()
	for batch := range p.batchCh {
		start := time.Now()
		eng := p.engine()
		for i := range batch {
			if batch[i].Ambiguous {
				p.ambiguous.Add(1)
			}
		}
		events, hits := p.stage.MatchAll(batch, eng)
		if p.cfg.Digests != nil {
			evs := make([]*ids.Event, len(batch))
			for k, i := range hits {
				evs[i] = &events[k]
			}
			digests := make([]registry.Digest, len(batch))
			for i := range batch {
				digests[i] = registry.DigestOf(&batch[i], evs[i], p.cfg.Digests.SampleLimit())
			}
			if err := p.cfg.Digests.RecordDigests(eng, digests); err != nil {
				p.fail(err)
			}
		}
		if len(events) > 0 {
			if err := p.cfg.Sink.AppendBatch(events); err != nil {
				p.fail(err)
			}
			p.events.Add(uint64(len(events)))
		}
		p.batches.Add(1)
		p.lastBatchNs.Store(int64(time.Since(start)))
		p.maybeCheckpoint()
	}
}
