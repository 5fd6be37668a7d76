// Package ingest is the daemon's streaming capture pipeline: it tails a
// directory of rotating pcap segments as a telescope writes them,
// incrementally reassembles TCP sessions, evaluates them against the dated
// IDS ruleset in bounded batches, and appends the attributed events to an
// eventstore — the continuous counterpart of the one-shot ids.ScanCapture
// batch path, producing the identical event set for the same capture.
//
// Shape:
//
//	tailer goroutine:  segments -> flow-sharded tcpasm (raw frames)
//	shard workers:     decode + per-flow reassembly (tcpasm.Sharded,
//	                   DecodeShards); Emit fills the open batch and
//	                   submits it to the match stage when it is full
//	match stage:       ids.MatchStage workers match each batch and deliver
//	                   it: digests, then the store
//
// Reassembly submits straight to the match stage, as the capture scan does:
// no sort and no copy beyond filling the open batch. The stage's bounded
// queue (4 batches) backpressures the shards, and through them the tailer,
// instead of buffering unboundedly. Batches reach the store in match-
// completion order; reads order events canonically, so nothing depends on
// the order of the store's log. The tailer alone writes the checkpoint: at
// an idle flush and at the final drain it submits the partial batch, waits
// until every submitted batch has been delivered, syncs the sinks and saves
// its position. Close drains: everything already on disk is consumed, open
// connections are flushed, the final batches are matched and appended, then
// the goroutines exit.
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
	PendingSessions int   // assembled sessions in the open batch
	QueuedBatches   int   // batches submitted to the match stage, not yet delivered
	PendingBytes    int64 // capture bytes on disk not yet consumed
	// LastBatchLatency is the time from the most recently delivered batch's
	// cut to the end of its delivery: queueing, matching, digests, append.
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

	emitMu sync.Mutex
	open   []tcpasm.Session // the batch being filled, submitted when full
	// inflight counts batches cut but not yet delivered. take adds to it;
	// the tailer waits on it right after a Flush or Wait barrier, when no
	// shard is emitting, so no Add races that Wait.
	inflight sync.WaitGroup

	stop    chan struct{}
	tailerD chan struct{}

	packets      atomic.Uint64
	sessions     atomic.Uint64
	events       atomic.Uint64
	submitted    atomic.Uint64 // batches submitted to the match stage
	batches      atomic.Uint64 // batches delivered: matched and appended
	segmentsDone atomic.Uint64
	skippedBytes atomic.Uint64
	ambiguous    atomic.Uint64
	openConns    atomic.Int64
	pendingSess  atomic.Int64
	consumed     atomic.Int64 // bytes consumed across all segments
	lastBatchNs  atomic.Int64

	errMu    sync.Mutex
	firstErr error

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
		open:    make([]tcpasm.Session, 0, cfg.BatchSessions),
		stop:    make(chan struct{}),
		tailerD: make(chan struct{}),
	}
	acfg.Emit = p.collect
	p.asm = tcpasm.NewSharded(acfg, 1)
	p.feeder = p.asm.Feeder(0)
	go p.tailer()
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
	// A batch counts as submitted before it can count as delivered, so
	// loading delivered first keeps the difference non-negative.
	done := p.batches.Load()
	m.QueuedBatches = int(p.submitted.Load() - done)
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
	ckpt    checkpoint // the position consumed through
	saved   checkpoint // the last position persisted
}

// checkpoint records a drain-consistent ingest position: every segment
// sorting before Segment is fully consumed, and Segment itself is consumed
// through Offset. One is persisted only when the assembler has been flushed,
// every batch submitted to the match stage has been delivered, and a
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

// settle runs on the tailer right after a Flush or Wait barrier, when every
// session from capture before st.ckpt has been emitted: it submits the
// partial batch, waits until every submitted batch has been delivered, then
// syncs a durable sink and the digests and persists st.ckpt. The tailer is
// the checkpoint's only writer.
func (p *Pipeline) settle(st *tailState) {
	p.openConns.Store(int64(p.asm.OpenConns()))
	p.emitMu.Lock()
	partial := p.take()
	p.pendingSess.Store(0)
	p.emitMu.Unlock()
	if partial != nil {
		p.submit(partial)
	}
	p.inflight.Wait()
	// A failed delivery may sit below the position; don't skip past it.
	if st.ckpt.Segment == "" || st.ckpt == st.saved || p.Err() != nil {
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
	if err := p.saveCheckpoint(st.ckpt); err != nil {
		p.fail(err)
		return
	}
	st.saved = st.ckpt
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
		// connections idling in the assembler and submit even a partial
		// batch — neither should be held hostage by a stalled writer. Once
		// every batch is delivered the position is drain-consistent, so a
		// crash past this point re-ingests only capture newer than it.
		if time.Since(lastProgress) >= p.cfg.FlushIdle {
			p.asm.Flush()
			p.settle(st)
		}
		select {
		case <-p.stop:
			p.drain(st)
			return
		case <-time.After(p.cfg.PollInterval):
		}
	}
}

// drain consumes every byte already on disk, flushes the assembler, matches
// and delivers all remaining sessions, persists the final position, and
// retires the shard workers and the match stage.
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
	p.settle(st)
	p.stage.Close()
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
	// Let idle connections complete. Drain is a shard barrier: cheap
	// relative to the up-to-8192 records fed above.
	if !st.lastTS.IsZero() {
		p.asm.Drain(st.lastTS)
		p.openConns.Store(int64(p.asm.OpenConns()))
	}
	return progress, nil
}

// collect is the shards' Emit hook: it appends emitted sessions to the open
// batch and submits the batch each time it fills. Shards emit concurrently
// and emitMu orders them; the submit happens after the lock is released, so
// a full stage queue blocks only the emitting shard, and through that
// shard's input queue the tailer — the backpressure.
func (p *Pipeline) collect(sessions []tcpasm.Session) {
	p.sessions.Add(uint64(len(sessions)))
	var full [][]tcpasm.Session
	p.emitMu.Lock()
	for len(sessions) > 0 {
		n := min(len(sessions), p.cfg.BatchSessions-len(p.open))
		p.open = append(p.open, sessions[:n]...)
		sessions = sessions[n:]
		if len(p.open) == p.cfg.BatchSessions {
			full = append(full, p.take())
		}
	}
	p.pendingSess.Store(int64(len(p.open)))
	p.emitMu.Unlock()
	for _, batch := range full {
		p.submit(batch)
	}
}

// take cuts the open batch, nil if it holds no session, and counts it as
// submitted from here on, so no gauge loses sight of it before submit. The
// caller holds emitMu.
func (p *Pipeline) take() []tcpasm.Session {
	if len(p.open) == 0 {
		return nil
	}
	batch := p.open
	p.open = make([]tcpasm.Session, 0, p.cfg.BatchSessions)
	p.submitted.Add(1)
	p.inflight.Add(1)
	return batch
}

// submit hands a cut batch to the match stage under the engine current now:
// a hot reload swaps engines between batches, never within one.
func (p *Pipeline) submit(batch []tcpasm.Session) {
	cutAt := time.Now()
	b := &ids.MatchBatch{Sessions: batch, Engine: p.engine()}
	p.stage.Submit(b, func(b *ids.MatchBatch) { p.deliver(b, cutAt) })
}

// engine resolves the engine for a batch as it is submitted: the
// EngineSource (hot reload) when present, the static Engine otherwise.
func (p *Pipeline) engine() *ids.Engine {
	if p.cfg.EngineSource != nil {
		if e := p.cfg.EngineSource(); e != nil {
			return e
		}
	}
	return p.cfg.Engine
}

// deliver runs on a match-stage worker, never concurrently with another
// delivery: it records one digest per session under the engine that
// labelled the batch, appends the batch's events to the sink, and retires
// the batch. cutAt is when the batch was submitted.
func (p *Pipeline) deliver(b *ids.MatchBatch, cutAt time.Time) {
	defer p.inflight.Done()
	for i := range b.Sessions {
		if b.Sessions[i].Ambiguous {
			p.ambiguous.Add(1)
		}
	}
	if p.cfg.Digests != nil {
		digests := make([]registry.Digest, len(b.Sessions))
		k := 0 // Hits ascend, so the next hit is the only candidate
		for i := range b.Sessions {
			var ev *ids.Event
			if k < len(b.Hits) && b.Hits[k] == i {
				ev = &b.Events[k]
				k++
			}
			digests[i] = registry.DigestOf(&b.Sessions[i], ev, p.cfg.Digests.SampleLimit())
		}
		if err := p.cfg.Digests.RecordDigests(b.Engine, digests); err != nil {
			p.fail(err)
		}
	}
	if len(b.Events) > 0 {
		if err := p.cfg.Sink.AppendBatch(b.Events); err != nil {
			p.fail(err)
		}
		p.events.Add(uint64(len(b.Events)))
	}
	p.batches.Add(1)
	p.lastBatchNs.Store(int64(time.Since(cutAt)))
}
