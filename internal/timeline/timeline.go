// Package timeline is the time-travel query engine layered on the event
// store: it seals committed events into immutable time-partitioned segment
// files, writes periodic snapshot checkpoints of the lifecycle and scan-stat
// aggregates, and answers as-of queries — "what did the study know at time
// t?" — in time proportional to the events since the nearest checkpoint
// instead of a full log replay.
//
// # Design
//
// The store appends events in arrival order, which is not event-time order:
// a sensor can deliver an event hours after it happened. The engine
// therefore never assumes segments partition event time. Instead:
//
//   - Seal cuts are taken in arrival order from the store's *committed*
//     per-shard prefixes (Store.CommittedEvents), so a sealed segment never
//     contains an event a crash-recovered store would lack. Each segment is
//     internally time-sorted and records its min/max event time; segments
//     may overlap in time.
//   - Once a segment is renamed in (and its checkpoint written), the engine
//     releases the sealed prefixes from the store's memory (Store.Release):
//     the segments and the shard logs hold that history, so the store keeps
//     only the unsealed tail. Open does the same for the recovered sealed
//     prefix. Releases and query snapshots serialize on the engine lock, so
//     a query's unsealed tail is always resident.
//   - A checkpoint over the first k segments records cut = the maximum event
//     time across those segments, and an aggregate covering all their
//     events. Because the aggregate is a commutative monoid (order- and
//     batch-insensitive), this is exact for any arrival order.
//   - AsOf(t) picks the newest checkpoint with cut <= t, then replays only
//     the delta: events in (cut, t] from checkpointed segments (usually
//     none — their max times are <= cut), events <= t from newer segments,
//     and the store's unsealed committed-and-published tail. Segments whose
//     min time exceeds t are skipped without touching the file.
//
// All files become visible only by renaming a fully fsynced temp file, so
// recovery is: list the directory, delete stranded *.tmp, trust every *.seg,
// and drop any checkpoint that fails to parse (costing replay time, never
// answers). The whole engine runs on a fault.FS and is exercised under
// fault.SimFS crash profiles in its tests.
package timeline

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
)

// Config configures an Engine.
type Config struct {
	// Dir is the segment/checkpoint directory.
	Dir string
	// FS is the filesystem to run on; nil means the real one.
	FS fault.FS
	// Store is the event store segments are sealed from.
	Store *eventstore.Store
	// RulePub maps rule SIDs to publication times; it parameterizes the
	// lifecycle aggregate (FixReady evidence) and must match what the batch
	// study uses (Study.RulePublications).
	RulePub map[int]time.Time
	// SegmentEvents is the seal threshold: Tick seals a segment once this
	// many committed events are unsealed. 0 means 4096; the cap is 65536 so
	// per-segment index frames stay well under the record size limit.
	SegmentEvents int
	// CheckpointEvery writes a checkpoint after every N new segments.
	// 0 means every segment (N=1); negative disables checkpoints entirely
	// (every as-of query replays the full log — the cold baseline).
	CheckpointEvery int
}

const (
	defaultSegmentEvents = 4096
	maxSegmentEvents     = 65536
	aggCacheSize         = 4
)

// Engine seals segments, maintains checkpoints, and serves as-of views.
// All methods are safe for concurrent use; queries never block sealing.
type Engine struct {
	fs      fault.FS
	dir     string
	store   *eventstore.Store
	rulePub map[int]time.Time
	segSize int
	ckEvery int

	mu            sync.RWMutex
	segments      []*segmentMeta
	checkpoints   []*ckptMeta
	sealed        []int64 // cumulative per-shard sealed counts (newest segment's header)
	maxSealedTime time.Time
	sinceCkpt     int

	aggMu    sync.Mutex
	aggCache map[uint64]*Aggregate // checkpoint seq -> aggregate, small LRU-ish
}

// Metrics is a point-in-time summary for the /metrics endpoint.
type Metrics struct {
	Segments         int
	SealedEvents     int64
	SealedBytes      int64
	Checkpoints      int
	CheckpointEvents int64     // events covered by the newest checkpoint
	CheckpointAt     time.Time // wall time the newest checkpoint was written; zero if none
}

// Open attaches an engine to dir, recovering sealed state: stranded *.tmp
// files from interrupted seals are removed, segments are loaded and
// validated against each other and the store, and unreadable checkpoints
// are discarded so queries fall back to the previous one.
func Open(cfg Config) (*Engine, error) {
	fs := cfg.FS
	if fs == nil {
		fs = fault.OS
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("timeline: Config.Store is required")
	}
	segSize := cfg.SegmentEvents
	if segSize <= 0 {
		segSize = defaultSegmentEvents
	}
	if segSize > maxSegmentEvents {
		segSize = maxSegmentEvents
	}
	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = 1
	}
	e := &Engine{
		fs:       fs,
		dir:      cfg.Dir,
		store:    cfg.Store,
		rulePub:  cfg.RulePub,
		segSize:  segSize,
		ckEvery:  ckEvery,
		aggCache: map[uint64]*Aggregate{},
	}
	if err := fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	names, err := fs.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	var segPaths, ckptPaths []string
	for _, name := range names {
		path := e.dir + "/" + name
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A crash between write and rename strands a temp file; it was
			// never visible, so deleting it is the whole recovery story.
			if err := fs.Remove(path); err != nil {
				return nil, fmt.Errorf("timeline: removing stranded %s: %w", name, err)
			}
		case strings.HasSuffix(name, ".seg"):
			segPaths = append(segPaths, path)
		case strings.HasSuffix(name, ".ck"):
			ckptPaths = append(ckptPaths, path)
		}
	}
	for _, path := range segPaths {
		raw, err := fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
		m, err := parseSegment(path, raw)
		if err != nil {
			return nil, err
		}
		e.segments = append(e.segments, m)
	}
	sort.Slice(e.segments, func(i, j int) bool { return e.segments[i].Seq < e.segments[j].Seq })
	for i, m := range e.segments {
		if m.Seq != uint64(i) {
			return nil, fmt.Errorf("timeline: segment sequence gap: have %s at position %d", m.path, i)
		}
		if m.Count > 0 && m.MaxTime.After(e.maxSealedTime) {
			e.maxSealedTime = m.MaxTime
		}
		e.sealed = m.SealedCounts
	}
	if err := e.checkStoreCoverage(); err != nil {
		return nil, err
	}
	if e.sealed != nil {
		if err := e.store.Release(e.sealed); err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
	}
	for _, path := range ckptPaths {
		raw, err := fs.ReadFile(path)
		if err != nil {
			continue // unreadable checkpoint: fall back, don't fail
		}
		meta, agg, err := parseCheckpoint(path, raw)
		if err != nil || meta.K > len(e.segments) {
			// Corrupt, or it references segments we don't have (possible
			// only under storage reordering of the two renames). Either
			// way it is not trustworthy; drop it and fall back.
			fs.Remove(path)
			continue
		}
		e.checkpoints = append(e.checkpoints, meta)
		e.cacheAggregate(meta.Seq, agg)
	}
	sort.Slice(e.checkpoints, func(i, j int) bool { return e.checkpoints[i].Seq < e.checkpoints[j].Seq })
	if n := len(e.checkpoints); n > 0 {
		e.sinceCkpt = len(e.segments) - e.checkpoints[n-1].K
	} else {
		e.sinceCkpt = len(e.segments)
	}
	return e, nil
}

// checkStoreCoverage verifies the store still holds every event the
// timeline sealed. Sealing only covers committed prefixes, so this can fail
// only if the store directory was lost or swapped — which must be loud.
func (e *Engine) checkStoreCoverage() error {
	if e.sealed == nil {
		return nil
	}
	committed := e.store.CommittedEvents()
	if len(committed) != len(e.sealed) {
		return fmt.Errorf("timeline: store has %d shards but segments were sealed from %d; store and timeline directories are mismatched", len(committed), len(e.sealed))
	}
	for i, n := range e.sealed {
		if int64(committed[i].Len()) < n {
			return fmt.Errorf("timeline: store shard %d has %d committed events but %d are sealed; store lost data after sealing", i, committed[i].Len(), n)
		}
	}
	return nil
}

// Tick seals a segment if at least Config.SegmentEvents committed events are
// unsealed, then writes a checkpoint if one is due. It reports whether a
// segment was sealed. The daemon calls this periodically; tests call Seal
// directly for exact control.
func (e *Engine) Tick() (bool, error) {
	e.mu.RLock()
	sealed := e.sealed
	e.mu.RUnlock()
	pending := 0
	for i, shard := range e.store.CommittedEvents() {
		n := shard.Len()
		if sealed != nil && i < len(sealed) {
			n -= int(sealed[i])
		}
		pending += n
	}
	if pending < e.segSize {
		return false, nil
	}
	return e.Seal()
}

// Seal cuts every committed-but-unsealed event into one new segment file,
// writes a checkpoint if one is due, and releases the newly sealed events
// from the store's memory. It reports whether a segment was written (false
// when nothing is pending). Seals are serialized; queries proceed
// concurrently against the previous state until the new segment is durably
// renamed in.
func (e *Engine) Seal() (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	committed := e.store.CommittedEvents()
	if e.sealed != nil && len(committed) != len(e.sealed) {
		return false, fmt.Errorf("timeline: store shard count changed (%d -> %d)", len(e.sealed), len(committed))
	}
	// The new segment's events stay where the store holds them: the seal
	// orders references into the committed slices and encodes through them.
	// Only sealed prefixes are ever released, so they are all resident.
	unsealed := make([][]ids.Event, len(committed))
	counts := make([]int64, len(committed))
	for i, shard := range committed {
		from := 0
		if e.sealed != nil {
			from = int(e.sealed[i])
		}
		counts[i] = int64(shard.Len())
		tail, err := shard.Tail(from)
		if err != nil {
			return false, fmt.Errorf("timeline: shard %d: %w", i, err)
		}
		unsealed[i] = tail
	}
	order := eventstore.CanonicalOrder(unsealed)
	if len(order) == 0 {
		return false, nil
	}
	batch := make([]*ids.Event, len(order))
	for i, r := range order {
		batch[i] = &unsealed[r.Part][r.Index]
	}

	seq := uint64(len(e.segments))
	path := e.dir + "/" + segmentName(seq)
	tmp := e.dir + "/" + fmt.Sprintf("segment-%06d.tmp", seq)
	data := encodeSegmentRefs(seq, counts, batch)
	if err := fault.WriteFileAtomic(e.fs, tmp, path, data); err != nil {
		return false, fmt.Errorf("timeline: sealing segment %d: %w", seq, err)
	}
	m, err := parseSegment(path, data)
	if err != nil {
		return false, err
	}
	e.segments = append(e.segments, m)
	e.sealed = counts
	if m.MaxTime.After(e.maxSealedTime) {
		e.maxSealedTime = m.MaxTime
	}
	e.sinceCkpt++

	var ckErr error
	if e.ckEvery > 0 && e.sinceCkpt >= e.ckEvery {
		if err := e.writeCheckpointLocked(batch); err != nil {
			// The segment is durable and counted; the checkpoint will be
			// retried after the next seal. Queries fall back meanwhile.
			ckErr = fmt.Errorf("timeline: checkpoint after segment %d: %w", seq, err)
		}
	}
	// The segment holds these events now, and the checkpoint fold has read
	// them; memory keeps only what is not sealed. Queries snapshot the store
	// under e.mu, so none can see a base past its own sealed counts.
	if err := e.store.Release(counts); err != nil {
		return true, fmt.Errorf("timeline: %w", err)
	}
	return true, ckErr
}

// Checkpoint forces a checkpoint covering every sealed segment now,
// regardless of CheckpointEvery. No-op if one already covers them all.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.checkpoints); len(e.segments) == 0 ||
		(n > 0 && e.checkpoints[n-1].K == len(e.segments)) {
		return nil
	}
	return e.writeCheckpointLocked(nil)
}

// writeCheckpointLocked builds and durably writes a checkpoint covering all
// current segments. Builds are incremental: start from the newest existing
// checkpoint's aggregate and fold in only the segments (and late events)
// past its cut. newest, when non-nil, is the newest segment's events as Seal
// just wrote them: if that segment is the only one the base aggregate does
// not cover, they are folded from memory instead of read back, since every
// event of it is at or before the new cut and every older segment's events
// are at or before the base's. Caller holds e.mu.
func (e *Engine) writeCheckpointLocked(newest []*ids.Event) error {
	k := len(e.segments)
	cut := e.maxSealedTime
	agg := NewAggregate()
	var h held
	if n := len(e.checkpoints); n > 0 {
		prev := e.checkpoints[n-1]
		pa, err := e.loadAggregate(prev)
		if err != nil {
			return err
		}
		agg = pa.Clone()
		// Already covered up to prev.Cut; only late events count there.
		h = held{k: prev.K, cut: prev.Cut}
	}
	if newest != nil && h.k == k-1 {
		var scratch ids.Event
		for _, ev := range newest {
			agg.AddOne(asSealed(ev, &scratch), e.rulePub)
		}
	} else {
		sealed := &snapshot{segs: e.segments}
		err := sealed.fold(e.fs, h, cut, func(ev *ids.Event) error {
			agg.AddOne(ev, e.rulePub)
			return nil
		})
		if err != nil {
			return err
		}
	}

	seq := uint64(len(e.checkpoints))
	if n := len(e.checkpoints); n > 0 {
		seq = e.checkpoints[n-1].Seq + 1
	}
	path := e.dir + "/" + checkpointName(seq)
	tmp := e.dir + "/" + fmt.Sprintf("ckpt-%06d.tmp", seq)
	writtenAt := time.Now().UTC()
	data := encodeCheckpoint(seq, k, cut, writtenAt, agg)
	if err := fault.WriteFileAtomic(e.fs, tmp, path, data); err != nil {
		return err
	}
	e.checkpoints = append(e.checkpoints, &ckptMeta{
		Seq: seq, K: k, Cut: cut, WrittenAt: writtenAt,
		SizeBytes: int64(len(data)), path: path,
	})
	e.cacheAggregate(seq, agg)
	e.sinceCkpt = 0
	return nil
}

// asSealed returns ev as a segment scan decodes it back, so an aggregate
// folded from the store's events equals one folded from the file. The store
// keeps events as they were appended, and the encoding drops what it cannot
// hold: a time's Location and monotonic reading, an address zone, bits of
// SID or Bytes past 32, string bytes past 65535. An event with none of those
// is returned as it is; any other is round-tripped through the segment
// encoding into *scratch.
func asSealed(ev, scratch *ids.Event) *ids.Event {
	// Comparing time.Time values with == is deliberate: UTC() strips the
	// Location and monotonic reading, so equality means there were none.
	if ev.Time == ev.Time.UTC() && ev.Published == ev.Published.UTC() &&
		ev.Src.Addr.Zone() == "" && ev.Dst.Addr.Zone() == "" &&
		uint64(ev.SID) <= math.MaxUint32 && uint64(ev.Bytes) <= math.MaxUint32 &&
		len(ev.CVE) <= math.MaxUint16 && len(ev.Msg) <= math.MaxUint16 {
		return ev
	}
	if err := eventstore.DecodeEventInto(eventstore.EncodeEvent(nil, ev), scratch, nil); err != nil {
		panic(fmt.Sprintf("timeline: an encoded event does not decode: %v", err)) // EncodeEvent's output always decodes
	}
	return scratch
}

func (e *Engine) cacheAggregate(seq uint64, agg *Aggregate) {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	e.aggCache[seq] = agg
	for len(e.aggCache) > aggCacheSize {
		lowest := seq
		for s := range e.aggCache {
			if s < lowest {
				lowest = s
			}
		}
		delete(e.aggCache, lowest)
	}
}

// loadAggregate returns the aggregate for a checkpoint, from cache or disk.
func (e *Engine) loadAggregate(c *ckptMeta) (*Aggregate, error) {
	e.aggMu.Lock()
	agg, ok := e.aggCache[c.Seq]
	e.aggMu.Unlock()
	if ok {
		return agg, nil
	}
	raw, err := e.fs.ReadFile(c.path)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	meta, agg, err := parseCheckpoint(c.path, raw)
	if err != nil {
		return nil, err
	}
	if meta.Seq != c.Seq || meta.K != c.K {
		return nil, fmt.Errorf("timeline: %s changed identity on disk (seq %d k %d, expected seq %d k %d)", c.path, meta.Seq, meta.K, c.Seq, c.K)
	}
	e.cacheAggregate(c.Seq, agg)
	return agg, nil
}

// Metrics reports sealing and checkpoint state for monitoring.
func (e *Engine) Metrics() Metrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := Metrics{Segments: len(e.segments), Checkpoints: len(e.checkpoints)}
	for _, s := range e.segments {
		m.SealedEvents += int64(s.Count)
		m.SealedBytes += s.SizeBytes
	}
	if n := len(e.checkpoints); n > 0 {
		m.CheckpointAt = e.checkpoints[n-1].WrittenAt
		if agg, err := e.loadAggregateRLocked(e.checkpoints[n-1]); err == nil {
			m.CheckpointEvents = int64(agg.EventCount())
		}
	}
	return m
}

// loadAggregateRLocked is loadAggregate for callers holding only e.mu.RLock
// (loadAggregate itself takes no engine lock, just the cache mutex).
func (e *Engine) loadAggregateRLocked(c *ckptMeta) (*Aggregate, error) {
	return e.loadAggregate(c)
}

// SegmentCount reports the number of sealed segments.
func (e *Engine) SegmentCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.segments)
}
