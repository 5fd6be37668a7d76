// Package eventstore is the daemon's incremental event log: a sharded,
// append-only binary store of IDS exploit events (ids.Event) that survives
// crashes and serves consistent point-in-time snapshots while appends
// continue.
//
// Design:
//
//   - Events are routed to a shard by their CVE (falling back to SID), so
//     one CVE's history lives in one shard file and per-CVE queries touch a
//     single log.
//   - Each shard file is a wal.Log: length-prefixed, CRC-checked records
//     behind a magic header. Opening a store replays every shard and
//     truncates a torn tail — a torn append costs the torn record, nothing
//     else.
//   - Readers never block writers and vice versa: each shard publishes its
//     event slice through an atomic pointer, and appends extend the slice
//     before republishing, so a reader's view is an immutable prefix.
//   - Every append bumps a store-wide generation. Snapshot() materializes
//     (and caches, keyed by generation) a merged, time-ordered view —
//     downstream analyses and the HTTP layer key their own caches off the
//     same generation, so nothing is recomputed until new data lands.
//   - Durability is group-committed: appends land in shard files (and in
//     readers' views) immediately, but only Commit/Sync makes them crash
//     durable — it fsyncs just the shards dirtied since the last commit,
//     then journals the committed shard sizes (plus an opaque caller meta
//     payload) in one fsynced record. On open, anything a shard holds
//     beyond its committed size is truncated: a crash between append and
//     commit can never leave half-promised events behind. Callers that
//     coalesce many appends into one Commit pay one fsync per dirty shard
//     plus one journal fsync for the whole group, not per batch.
package eventstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/wal"
)

// Options tunes a store.
type Options struct {
	// Shards is the number of shard files. Zero means 4. The count is
	// sticky: it is recorded on first open and reused (a mismatch is an
	// error, since routing depends on it).
	Shards int
	// SyncEvery forces a commit after every n appended batches. Zero
	// disables periodic commits (Close still commits); crash-safety then
	// means "no corruption", not "no loss of the last moments".
	SyncEvery int
	// FS is the filesystem the store runs against. Nil means the real one
	// (fault.OS); the simulation harness substitutes a fault.SimFS to
	// search crash points and injected I/O errors.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 4
	}
	return o
}

// Store is an on-disk event log open for appending and querying.
type Store struct {
	dir    string
	fs     fault.FS
	opts   Options
	shards []*shard
	gen    atomic.Uint64

	appended atomic.Uint64 // batches since last sync

	// appendMu lets Commit take a consistent batch-aligned cut of shard
	// sizes: appends hold it shared for the whole batch, the committer holds
	// it exclusively for microseconds while reading sizes. No I/O ever
	// happens under the exclusive hold, so appends stream on while the
	// committer fsyncs.
	appendMu sync.RWMutex

	// commitMu serializes Commit/Sync (the fleet committer and the local
	// ingest pipeline may both be durability callers on one store) and
	// guards cj and meta.
	commitMu sync.Mutex
	cj       *commitJournal
	meta     []byte // opaque payload of the newest commit record

	snapMu sync.Mutex
	snap   atomic.Pointer[Snapshot]

	// Amendment log state (see amend.go). amendMu serializes appends; the
	// published slice is lock-free for readers like the shard event slices.
	amendMu  sync.Mutex
	amendLog *wal.Log
	amends   atomic.Pointer[[]Amendment]

	closeMu sync.Mutex
	closed  bool
}

type shard struct {
	mu         sync.Mutex
	log        *wal.Log
	synced     int64 // bytes covered by the last commit (guarded by Store.commitMu)
	events     atomic.Pointer[[]ids.Event]
	committed  atomic.Int64 // events covered by the last commit record
	lastAppend atomic.Int64 // UnixNano of the most recent append; 0 = none since open
}

// Open opens (creating if needed) the store in dir and recovers every
// shard. Recovery trusts the commit journal: a shard's contents beyond its
// last committed size are an uncommitted tail (appended but never promised
// durable) and are truncated, as is any torn frame. A store without a
// commit journal (pre-group-commit, or one that never committed) adopts
// every intact record, matching the old recovery contract.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fs := fault.Or(opts.FS)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkShardCount(fs, dir, &opts); err != nil {
		return nil, err
	}
	cj, err := openCommitJournal(fs, dir)
	if err != nil {
		return nil, err
	}
	if cj.last != nil && len(cj.last.sizes) != opts.Shards {
		cj.Close()
		return nil, fmt.Errorf("eventstore: commit journal in %s covers %d shards, store has %d",
			dir, len(cj.last.sizes), opts.Shards)
	}
	s := &Store{dir: dir, fs: fs, opts: opts, cj: cj}
	if cj.last != nil {
		s.meta = append([]byte(nil), cj.last.meta...)
	}
	for i := 0; i < opts.Shards; i++ {
		committed := int64(-1) // no journal record: adopt every intact record
		if cj.last != nil {
			committed = cj.last.sizes[i]
		}
		sh, n, err := openShard(fs, filepath.Join(dir, shardName(i)), committed)
		if err != nil {
			for _, prev := range s.shards {
				prev.log.Close()
			}
			cj.Close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
		if n > 0 {
			s.gen.Add(1) // recovered data is generation 1+
		}
	}
	if err := s.openAmendLog(); err != nil {
		for _, sh := range s.shards {
			sh.log.Close()
		}
		cj.Close()
		return nil, err
	}
	if cj.last == nil {
		// Seal the recovered state in an initial commit record before any
		// append can happen. Without it, recovery's no-journal fallback (adopt
		// every intact record) stays live after appends begin — and a crash
		// before the first commit can then resurrect uncommitted frames that
		// the page cache happened to flush on its own, events no commit meta
		// accounts for. A redelivering sensor would apply them twice. With the
		// record, every later recovery truncates to a real committed cut; the
		// adopt-everything path runs only at this upgrade moment, on state no
		// appender has touched.
		sizes := make([]int64, len(s.shards))
		for i, sh := range s.shards {
			sizes[i] = sh.log.Size()
		}
		if err := cj.append(sizes, s.meta); err != nil {
			for _, sh := range s.shards {
				sh.log.Close()
			}
			cj.Close()
			return nil, fmt.Errorf("eventstore: sealing recovered state: %w", err)
		}
	}
	return s, nil
}

func shardName(i int) string { return fmt.Sprintf("events-%02d.log", i) }

// checkShardCount pins the shard count in a marker file so reopening with a
// different Options.Shards (which would misroute CVEs) fails loudly.
func checkShardCount(fs fault.FS, dir string, opts *Options) error {
	marker := filepath.Join(dir, "SHARDS")
	b, err := fs.ReadFile(marker)
	if os.IsNotExist(err) || (err == nil && len(trimNL(b)) == 0) {
		// An empty marker is a crash between create and durability (the only
		// torn state a two-byte write can leave); it carries no information,
		// so rewrite it rather than wedging recovery. The write goes through
		// a synced handle — WriteFile alone is not durable.
		f, ferr := fs.OpenFile(marker, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if ferr != nil {
			return ferr
		}
		if _, ferr = f.Write([]byte(strconv.Itoa(opts.Shards) + "\n")); ferr != nil {
			f.Close()
			return ferr
		}
		if ferr = f.Sync(); ferr != nil {
			f.Close()
			return ferr
		}
		return f.Close()
	}
	if err != nil {
		return err
	}
	n, convErr := strconv.Atoi(string(trimNL(b)))
	if convErr != nil || n <= 0 {
		return fmt.Errorf("eventstore: corrupt shard marker %q in %s", b, dir)
	}
	if n != opts.Shards {
		return fmt.Errorf("eventstore: store %s has %d shards, opened with %d", dir, n, opts.Shards)
	}
	return nil
}

func trimNL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// openShard opens one shard log and returns the recovered event count.
// committed, when >= 0, is the shard's size in the last commit record: it
// bounds what recovery trusts — a frame reaching beyond it is an uncommitted
// tail and ends the log even when intact, so a crash between append and
// commit never resurrects events the commit meta does not cover. Bytes below
// it recover frame by frame (a tear inside the committed region means
// storage failure; recovery salvages the intact prefix rather than refusing
// to open).
func openShard(fs fault.FS, path string, committed int64) (*shard, int, error) {
	var events []ids.Event
	end := int64(len(fileMagic))
	log, err := wal.Open(fs, path, fileMagic, maxRecordLen, func(payload []byte) error {
		end += int64(wal.FrameHeaderLen + len(payload))
		if committed >= int64(len(fileMagic)) && end > committed {
			return wal.ErrStop
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			return err
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("eventstore: shard: %w", err)
	}
	sh := &shard{log: log, synced: log.Size()}
	sh.events.Store(&events)
	// Recovery truncated to the committed cut, so everything recovered is
	// committed by definition.
	sh.committed.Store(int64(len(events)))
	return sh, len(events), nil
}

// shardFor routes an event: by CVE when attributed, by SID otherwise.
func (s *Store) shardFor(ev *ids.Event) int {
	h := fnv.New32a()
	if ev.CVE != "" {
		h.Write([]byte(ev.CVE))
	} else {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(ev.SID) >> (8 * i))
		}
		h.Write(b[:])
	}
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Append appends one event. See AppendBatch.
func (s *Store) Append(ev ids.Event) error { return s.AppendBatch([]ids.Event{ev}) }

// AppendBatch appends a batch of events (one generation bump for the whole
// batch). Events within the batch keep their order within each shard, and
// the batch is readable immediately; it becomes crash durable at the next
// Commit/Sync. Concurrent AppendBatch calls are safe — batches for
// different shards write in parallel — and concurrent snapshots never block
// on them.
func (s *Store) AppendBatch(events []ids.Event) error { return s.AppendBatchFunc(events, nil) }

// AppendBatchFunc is AppendBatch with a hook: applied (when non-nil) runs
// after the batch's writes have succeeded and its events are published, while
// the append locks are still held. A group committer uses it to register the
// batch in its commit queue atomically with the append: any commit cut that
// sees the batch's bytes then also sees its queue entry, so a commit record
// can never promise bytes durable that its meta does not account for — the
// gap that would otherwise let a crash turn a redelivery into a double apply.
// The hook must be non-blocking and must not call back into the store.
func (s *Store) AppendBatchFunc(events []ids.Event, applied func()) error {
	if len(events) == 0 {
		if applied != nil {
			applied()
		}
		return nil
	}
	groups := make(map[int][]ids.Event)
	for i := range events {
		si := s.shardFor(&events[i])
		groups[si] = append(groups[si], events[i])
	}
	// Encode outside any lock: only the file writes and the publish need to
	// serialize with other appenders.
	order := make([]int, 0, len(groups))
	for si := range groups {
		order = append(order, si)
	}
	sort.Ints(order)
	bufs := make([][]byte, len(order))
	var payload []byte
	for k, si := range order {
		var buf []byte
		for i := range groups[si] {
			payload = EncodeEvent(payload[:0], &groups[si][i])
			buf = wal.AppendFrame(buf, payload)
		}
		bufs[k] = buf
	}
	if err := s.appendLocked(order, bufs, groups, applied); err != nil {
		return err
	}
	if n := s.opts.SyncEvery; n > 0 && s.appended.Add(1)%uint64(n) == 0 {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// appendLocked writes one encoded batch under the append locks; the periodic
// SyncEvery commit happens in the caller, after every lock is released (Sync
// takes appendMu exclusively).
func (s *Store) appendLocked(order []int, bufs [][]byte, groups map[int][]ids.Event, applied func()) error {
	// The shared hold spans the whole batch so the committer's exclusive cut
	// always lands on a batch boundary — a commit record can never cover half
	// a batch's shards.
	s.appendMu.RLock()
	defer s.appendMu.RUnlock()
	// Hold every involved shard for the whole batch, in index order so
	// concurrent batches cannot deadlock. The batch is all-or-nothing: a
	// failed write must roll every touched shard back to its pre-batch
	// boundary with nothing interleaved in between — otherwise the caller
	// sees an error, redelivers, and the shards that had already taken their
	// group apply it twice.
	for _, si := range order {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range order {
			s.shards[si].mu.Unlock()
		}
	}()
	for k, si := range order {
		if err := s.shards[si].log.Append(bufs[k]); err != nil {
			// The failing shard rolled itself back; undo the shards that had
			// already taken their group, or a later commit would cover half a
			// batch the caller was told failed.
			for j, sj := range order[:k] {
				l := s.shards[sj].log
				l.Rollback(l.Size() - int64(len(bufs[j])))
			}
			return fmt.Errorf("eventstore: appending: %w", err)
		}
	}
	now := time.Now().UnixNano()
	for _, si := range order {
		sh := s.shards[si]
		// Publish to readers: extending the slice only ever writes past every
		// published length, so holders of older headers see a stable prefix.
		cur := *sh.events.Load()
		next := append(cur, groups[si]...)
		sh.events.Store(&next)
		sh.lastAppend.Store(now)
	}
	s.gen.Add(1)
	if applied != nil {
		applied() // inside the locks: visible to any cut that sees these bytes
	}
	return nil
}

// Generation returns the current store generation. It changes exactly when
// new data lands, so it is a complete cache key for derived results.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Len returns the number of stored events.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(*sh.events.Load())
	}
	return n
}

// SizeBytes returns the total on-disk size of the shard logs.
func (s *Store) SizeBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.log.Size()
		sh.mu.Unlock()
	}
	return n
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ShardStats is one shard file's share of the store: how many records it
// holds, its on-disk size, and when it last received an append (zero if
// nothing has landed since open — recovered data does not count).
type ShardStats struct {
	Shard      int
	Records    int
	SizeBytes  int64
	LastAppend time.Time
}

// ShardStats reports per-shard record counts, sizes, and last-append times,
// in shard order. It is the /metrics view of routing balance: a hot or stale
// shard shows up here long before the aggregate Len does.
func (s *Store) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i].Shard = i
		out[i].Records = len(*sh.events.Load())
		sh.mu.Lock()
		out[i].SizeBytes = sh.log.Size()
		sh.mu.Unlock()
		if ns := sh.lastAppend.Load(); ns != 0 {
			out[i].LastAppend = time.Unix(0, ns).UTC()
		}
	}
	return out
}

// LastAppend returns the time of the most recent append to any shard, or the
// zero time if nothing has been appended since open. Health checks compare it
// against a staleness window to spot a coordinator whose ingest has stalled.
func (s *Store) LastAppend() time.Time {
	var max int64
	for _, sh := range s.shards {
		if ns := sh.lastAppend.Load(); ns > max {
			max = ns
		}
	}
	if max == 0 {
		return time.Time{}
	}
	return time.Unix(0, max).UTC()
}

// Sync makes every appended batch crash durable. It is Commit preserving
// the current commit meta: only shards dirtied since the last commit are
// fsynced, then one journal record seals the group.
func (s *Store) Sync() error { return s.Commit(nil) }

// Commit group-commits everything appended so far: it takes a batch-aligned
// cut of shard sizes, fsyncs just the shards that grew since the last
// commit, then writes one fsynced journal record of the committed sizes
// plus meta. After Commit returns, a crash recovers exactly this cut — no
// more, and (absent storage failure) no less.
//
// meta is an opaque caller payload stored in the same record, so a caller's
// own progress marks (the fleet coordinator's per-sensor watermarks) become
// durable atomically with the events they describe. nil preserves the
// previous commit's meta (Sync's behavior); pass an empty non-nil slice to
// clear it. The last committed meta is recovered at Open via CommitMeta.
func (s *Store) Commit(meta []byte) error {
	if meta == nil {
		return s.CommitFunc(nil)
	}
	return s.CommitFunc(func() []byte { return meta })
}

// CommitFunc is Commit with the meta computed at the cut: metaFn (when
// non-nil) runs while the exclusive append lock is held, so the meta it
// returns can account for exactly the batches whose bytes the recorded sizes
// cover — no batch can slip in between the meta's computation and the size
// snapshot. The fleet coordinator drains its commit queue there; combined
// with AppendBatchFunc's in-lock enqueue this closes the window where a
// commit record covered a batch's bytes while its watermark advance was
// still in flight (after a crash, recovery would keep the bytes, the stale
// watermark would invite redelivery, and the batch would apply twice).
// metaFn returning nil preserves the previous record's meta, like
// Commit(nil). metaFn must not call back into the store.
func (s *Store) CommitFunc(metaFn func() []byte) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// Consistent cut: exclusive hold waits out in-flight batches and blocks
	// new ones for a few loads plus metaFn, nothing more. Fsyncs happen after
	// release, concurrently with new appends — they cover at least the cut.
	s.appendMu.Lock()
	var meta []byte
	if metaFn != nil {
		meta = metaFn()
	}
	if meta == nil {
		meta = s.meta
	}
	sizes := make([]int64, len(s.shards))
	counts := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = sh.log.Size()
		counts[i] = int64(len(*sh.events.Load()))
	}
	s.appendMu.Unlock()
	dirty := false
	for i, sh := range s.shards {
		if sizes[i] > sh.synced {
			if err := sh.log.Sync(); err != nil {
				return fmt.Errorf("eventstore: syncing shard %d: %w", i, err)
			}
			dirty = true
		}
	}
	if !dirty && s.cj.last != nil && bytes.Equal(meta, s.meta) {
		return nil // nothing new since the last commit record
	}
	if err := s.cj.append(sizes, meta); err != nil {
		return err
	}
	for i, sh := range s.shards {
		if sizes[i] > sh.synced {
			sh.synced = sizes[i]
		}
		if counts[i] > sh.committed.Load() {
			sh.committed.Store(counts[i])
		}
	}
	s.meta = append([]byte(nil), meta...)
	return nil
}

// CommitMeta returns (a copy of) the opaque payload of the newest commit
// record — at open, the one recovery trusted.
func (s *Store) CommitMeta() []byte {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return append([]byte(nil), s.meta...)
}

// Close commits and closes the shard files and journal. The store must not
// be used afterwards.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	first := s.Commit(nil)
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.log.Close(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	s.amendMu.Lock()
	if err := s.amendLog.Close(); err != nil && first == nil {
		first = err
	}
	s.amendMu.Unlock()
	s.commitMu.Lock()
	if err := s.cj.Close(); err != nil && first == nil {
		first = err
	}
	s.commitMu.Unlock()
	return first
}

// CommittedEvents returns, shard by shard, the event prefix covered by the
// newest commit record — exactly what a crash right now is promised to
// recover. Each returned slice is an immutable prefix of its shard's log
// (appends only ever extend past every published length), so callers may
// hold it indefinitely without copying. The timeline segmenter seals from
// these prefixes: a sealed segment can then never contain an event a
// recovered store would not.
func (s *Store) CommittedEvents() [][]ids.Event {
	out := make([][]ids.Event, len(s.shards))
	for i, sh := range s.shards {
		events := *sh.events.Load()
		// The committed count is captured under the same exclusive cut as the
		// committed sizes, so it can never exceed the published length; load
		// order (events first) keeps that true even against a racing commit.
		n := sh.committed.Load()
		if n > int64(len(events)) {
			n = int64(len(events))
		}
		out[i] = events[:n:n]
	}
	return out
}

// PublishedEvents returns, shard by shard, every readable event: the
// committed prefix plus the appended-but-not-yet-committed tail (what
// Snapshot merges). Slices are immutable prefixes, as for CommittedEvents.
func (s *Store) PublishedEvents() [][]ids.Event {
	out := make([][]ids.Event, len(s.shards))
	for i, sh := range s.shards {
		events := *sh.events.Load()
		out[i] = events[:len(events):len(events)]
	}
	return out
}

// Less is the store's canonical event order — by time, then SID, then source
// endpoint — the order Snapshot publishes and every downstream byte-parity
// check depends on. SortEvents applies it.
func Less(a, b *ids.Event) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	if a.SID != b.SID {
		return a.SID < b.SID
	}
	if a.Src.Addr != b.Src.Addr {
		return a.Src.Addr.Less(b.Src.Addr)
	}
	return a.Src.Port < b.Src.Port
}

// SortEvents sorts events into the store's canonical order (see Less),
// stably, so equal keys keep their incoming order exactly as Snapshot does.
func SortEvents(events []ids.Event) {
	sort.SliceStable(events, func(i, j int) bool { return Less(&events[i], &events[j]) })
}

// MergeEvents materializes a read-side view, the one place that computation
// is written: per-shard event prefixes concatenated in shard order,
// stable-sorted into canonical order, with resolved amendments overlaid (so
// consumers see post-rescan labels without the shard files ever rewriting).
// Snapshot is this over the store's current view; read paths holding pinned
// prefixes (PublishedEvents, Amendments) call it to replay the identical
// computation later. The inputs are not modified.
func MergeEvents(parts [][]ids.Event, amends []Amendment) []ids.Event {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	merged := make([]ids.Event, 0, total)
	for _, p := range parts {
		merged = append(merged, p...)
	}
	SortEvents(merged)
	return applyAmendments(merged, amends)
}

// Snapshot returns a consistent point-in-time view of the store. Snapshots
// are cheap when nothing changed (the previous one is reused) and immutable
// forever; appends after the call are invisible to it.
func (s *Store) Snapshot() *Snapshot {
	if sn := s.snap.Load(); sn != nil && sn.gen == s.gen.Load() {
		return sn
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for {
		gen := s.gen.Load()
		if sn := s.snap.Load(); sn != nil && sn.gen == gen {
			return sn
		}
		parts := s.PublishedEvents()
		amends := s.Amendments()
		if s.gen.Load() != gen {
			continue // an append raced the reads; retry for a stable view
		}
		sn := &Snapshot{gen: gen, events: MergeEvents(parts, amends)}
		s.snap.Store(sn)
		return sn
	}
}

// Snapshot is an immutable, time-ordered view of the store at one
// generation.
type Snapshot struct {
	gen    uint64
	events []ids.Event

	once  sync.Once
	byCVE map[string][]ids.Event
}

// Generation identifies the store state this snapshot reflects.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Len returns the number of events in the snapshot.
func (sn *Snapshot) Len() int { return len(sn.events) }

// Events returns the full time-ordered event slice. Callers must treat it
// as read-only; it is shared by every user of the snapshot.
func (sn *Snapshot) Events() []ids.Event { return sn.events }

// CVE returns the events attributed to one CVE (in "YYYY-NNNN" form), in
// time order. The per-CVE index is built lazily on first use.
func (sn *Snapshot) CVE(cve string) []ids.Event {
	sn.index()
	return sn.byCVE[cve]
}

// CVEs returns the attributed CVE identifiers present, sorted.
func (sn *Snapshot) CVEs() []string {
	sn.index()
	out := make([]string, 0, len(sn.byCVE))
	for cve := range sn.byCVE {
		out = append(out, cve)
	}
	sort.Strings(out)
	return out
}

func (sn *Snapshot) index() {
	sn.once.Do(func() {
		sn.byCVE = make(map[string][]ids.Event)
		for i := range sn.events {
			if cve := sn.events[i].CVE; cve != "" {
				sn.byCVE[cve] = append(sn.byCVE[cve], sn.events[i])
			}
		}
	})
}
