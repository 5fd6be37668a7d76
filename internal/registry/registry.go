// Package registry is the versioned ruleset registry: the subsystem that
// lets the study's ruleset evolve while the pipeline runs, without ever
// lying about what was known when.
//
// Three pieces:
//
//   - An append-only ruleset journal (one entry per publication, each a
//     dated-ruleset delta under a monotonic generation). The merged view of
//     base ruleset + journal is the registry's current ruleset.
//   - An RCU-style engine swap: every publication compiles a fresh
//     ids.Engine and swaps it behind an atomic pointer. Live pipelines load
//     the engine per batch, so a swap lands cleanly between batches — no
//     session is dropped or matched twice, and a batch is always labeled by
//     exactly one generation.
//   - Retroactive re-attribution: ingest persists per-session digests; a
//     publication triggers a rescan that replays the digests against the new
//     engine and emits amendments (see eventstore.Amendment) where the
//     earliest-published-match label changed. History converges to what a
//     cold run over the final ruleset would have produced.
//
// Compiled prefilter automatons are cached per ruleset generation in the
// registry directory (see ids.AutomatonCache), so re-opening or re-publishing
// a known pattern set skips the 48k-pattern build.
package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/rules"
)

// Config configures a registry.
type Config struct {
	// Dir is the registry directory (journal, digest log, automaton cache,
	// rescan marker).
	Dir string
	// FS substitutes a filesystem (nil = the real one).
	FS fault.FS
	// Base is the generation-0 ruleset (the study snapshot); journal entries
	// fold over it.
	Base []rules.DatedRule
	// Engine is the engine configuration every generation compiles with. Its
	// AutomatonCache field is overridden to the registry's on-disk cache.
	Engine ids.Config
	// SampleLimit caps per-direction digest samples (0 = DefaultSampleLimit).
	SampleLimit int
}

// Registry is an open versioned ruleset registry.
type Registry struct {
	cfg Config
	fs  fault.FS
	dir string

	// engine is the RCU read side: pipelines Load it per batch and never
	// block a publish; a publish compiles off to the side and Stores.
	engine atomic.Pointer[ids.Engine]
	gen    atomic.Uint64

	// mu serializes the write side (Publish/Refresh) and guards ruleset.
	mu      sync.Mutex
	journal *rulesetJournal
	ruleset []rules.DatedRule // current merged view, sorted by SID

	digests *digestLog

	// Rescan progress for /metrics: pending is the digest backlog the next
	// rescan must cover (set at publish, falls to 0 as a rescan proceeds),
	// done counts digests rescanned since open.
	rescanPending atomic.Int64
	rescanDone    atomic.Int64
	rescanMu      sync.Mutex // serializes Rescan runs

	closed atomic.Bool
}

// Open opens (creating if needed) the registry in cfg.Dir, folds the journal
// over the base ruleset, and compiles the current engine (via the on-disk
// automaton cache when warm). If a publication's rescan was interrupted by a
// crash, RescanNeeded reports true and the next Rescan covers everything —
// rescans are idempotent, so restarting from scratch is always safe.
func Open(cfg Config) (*Registry, error) {
	fs := fault.Or(cfg.FS)
	if err := fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg, fs: fs, dir: cfg.Dir}
	r.ruleset = append([]rules.DatedRule(nil), cfg.Base...)
	j, err := openJournal(fs, cfg.Dir, func(e journalEntry) {
		r.ruleset = rules.MergeDated(r.ruleset, e.delta)
	})
	if err != nil {
		return nil, err
	}
	r.journal = j
	r.gen.Store(j.gen)
	r.digests, err = openDigestLog(fs, cfg.Dir)
	if err != nil {
		j.Close()
		return nil, err
	}
	r.engine.Store(r.compile(r.ruleset))
	if r.RescanNeeded() {
		r.rescanPending.Store(r.digests.Len())
	}
	return r, nil
}

// compile builds an engine for the given merged ruleset through the on-disk
// automaton cache.
func (r *Registry) compile(ruleset []rules.DatedRule) *ids.Engine {
	cfg := r.cfg.Engine
	cfg.AutomatonCache = &dirCache{fs: r.fs, dir: r.dir}
	return ids.NewEngine(ruleset, cfg)
}

// Engine returns the current engine. The pointer is immutable; pipelines
// capture it once per batch so every batch is labeled by one generation.
func (r *Registry) Engine() *ids.Engine { return r.engine.Load() }

// Generation returns the current ruleset generation (0 = base only).
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// NumRules returns the current merged ruleset size.
func (r *Registry) NumRules() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ruleset)
}

// Ruleset returns a copy of the current merged ruleset, sorted by SID.
func (r *Registry) Ruleset() []rules.DatedRule {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]rules.DatedRule(nil), r.ruleset...)
}

// Publish appends a delta to the journal (durably), merges it, compiles the
// new generation's engine, and swaps it live. It returns the new generation.
// The rescan-needed marker is set before Publish returns: even a crash
// immediately after leaves the re-attribution debt recorded.
func (r *Registry) Publish(delta []rules.DatedRule) (uint64, error) {
	if len(delta) == 0 {
		return 0, fmt.Errorf("registry: empty delta")
	}
	deduped, errs := rules.DedupDatedSIDs(delta)
	if len(errs) > 0 {
		return 0, fmt.Errorf("registry: delta has conflicting rules: %v", errs[0])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.journal.gen + 1
	if err := r.journal.append(gen, deduped); err != nil {
		return 0, err
	}
	merged := rules.MergeDated(r.ruleset, deduped)
	eng := r.compile(merged)
	// Marker before swap: once the new engine can label anything, the
	// obligation to reconcile history is already durable.
	if err := r.setRescanMarker(gen); err != nil {
		return 0, err
	}
	r.ruleset = merged
	r.engine.Store(eng)
	r.gen.Store(gen)
	r.rescanPending.Store(r.digests.Len())
	return gen, nil
}

// Refresh picks up publications appended to the journal by another process
// (waybackctl against a live daemon's directory). It returns the generation
// after the pickup; when nothing is new it is a cheap stat-sized read.
func (r *Registry) Refresh() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := r.ruleset
	applied := false
	err := r.journal.tail(func(e journalEntry) {
		merged = rules.MergeDated(merged, e.delta)
		applied = true
	})
	if err != nil {
		return r.gen.Load(), err
	}
	if !applied {
		return r.gen.Load(), nil
	}
	eng := r.compile(merged)
	r.ruleset = merged
	r.engine.Store(eng)
	r.gen.Store(r.journal.gen)
	if r.RescanNeeded() {
		r.rescanPending.Store(r.digests.Len())
	}
	return r.journal.gen, nil
}

// RecordDigests persists per-session digests (see Digest). Ingest calls it
// per matched batch; durability follows the next SyncDigests.
func (r *Registry) RecordDigests(ds []Digest) error { return r.digests.Append(ds) }

// SyncDigests fsyncs the digest log; ingest calls it at its checkpoint
// cadence so digests are never more stale than events.
func (r *Registry) SyncDigests() error { return r.digests.Sync() }

// DigestCount returns the number of persisted session digests.
func (r *Registry) DigestCount() int64 { return r.digests.Len() }

// SampleLimit returns the configured digest sample cap.
func (r *Registry) SampleLimit() int {
	if r.cfg.SampleLimit > 0 {
		return r.cfg.SampleLimit
	}
	return DefaultSampleLimit
}

// RescanPending returns the digest backlog awaiting re-attribution; zero
// when history is reconciled with the current generation.
func (r *Registry) RescanPending() int64 { return r.rescanPending.Load() }

// RescanDone returns digests rescanned since open.
func (r *Registry) RescanDone() int64 { return r.rescanDone.Load() }

// rescanMarkerPath holds the generation whose publication awaits rescan.
func (r *Registry) rescanMarkerPath() string { return filepath.Join(r.dir, "rescan.pending") }

func (r *Registry) setRescanMarker(gen uint64) error {
	// WriteFile is not fsynced through every fault.FS; write-then-sync via a
	// handle so the marker survives the crash it exists for.
	f, err := r.fs.OpenFile(r.rescanMarkerPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(strconv.FormatUint(gen, 10) + "\n")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RescanNeeded reports whether a publication's re-attribution has not yet
// completed (including after a crash mid-rescan).
func (r *Registry) RescanNeeded() bool {
	_, err := r.fs.ReadFile(r.rescanMarkerPath())
	return err == nil
}

// RescanStats summarizes one rescan run.
type RescanStats struct {
	Digests    int // digests replayed
	Amended    int // label changes emitted
	Additions  int // previously-unmatched sessions that gained a label
	Retracted  int // sessions whose label was withdrawn
	SkippedCap int // truncated digests whose label change was not trusted
}

// Rescan replays every persisted digest against the current engine and
// appends amendments to st where the earliest-published-match label changed.
// It is idempotent: amendments carry the ingest-time original label and the
// ruleset generation, and resolution takes the newest generation, so running
// it twice (or restarting it after a crash — the pending marker survives
// until completion) converges to the same history a cold run over the final
// ruleset would produce.
func (r *Registry) Rescan(st *eventstore.Store) (RescanStats, error) {
	r.rescanMu.Lock()
	defer r.rescanMu.Unlock()
	eng := r.Engine() // one generation labels the whole rescan
	gen := r.Generation()
	var stats RescanStats
	var pending []eventstore.Amendment
	total := r.digests.Len()
	r.rescanPending.Store(total)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := st.AppendAmendments(pending); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	err := r.digests.walk(func(d Digest) error {
		stats.Digests++
		r.rescanDone.Add(1)
		if n := r.rescanPending.Load(); n > 0 {
			r.rescanPending.Add(-1)
		}
		s := d.Session()
		ev, matched := ids.MatchSession(&s, eng)
		switch {
		case !matched && d.OrigSID == 0:
			return nil // still unmatched
		case matched && ev.SID == d.OrigSID && ev.CVE == d.OrigCVE:
			return nil // label unchanged
		case d.Truncated:
			// The digest saw less than the cold pipeline; a differing label
			// could be an artifact of the cap. Do not amend on partial
			// evidence.
			stats.SkippedCap++
			return nil
		}
		a := eventstore.Amendment{OrigSID: d.OrigSID, OrigCVE: d.OrigCVE, Gen: gen}
		if matched {
			a.Event = ev
			if d.OrigSID == 0 {
				stats.Additions++
			}
		} else {
			// Retraction: keep the session identity, zero the label.
			a.Event = ids.Event{Time: d.Start, Src: d.Client, Dst: d.Server}
			stats.Retracted++
		}
		stats.Amended++
		pending = append(pending, a)
		if len(pending) >= 1024 {
			return flush()
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	if err := flush(); err != nil {
		return stats, err
	}
	// Completion: drop the marker only after every amendment is durable
	// (AppendAmendments fsyncs). A crash before this point re-runs the whole
	// rescan; idempotence makes that free of double effects.
	if r.Generation() == gen {
		if err := r.fs.Remove(r.rescanMarkerPath()); err != nil && !os.IsNotExist(err) {
			return stats, err
		}
		r.rescanPending.Store(0)
	}
	return stats, nil
}

// Close closes the journal and digest log.
func (r *Registry) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	err := r.journal.Close()
	if derr := r.digests.log.Close(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// dirCache is the on-disk ids.AutomatonCache: one file per pattern-set key
// in the registry directory. Corrupt or missing entries read as misses;
// stores are best-effort (a failed cache write costs a rebuild, nothing
// else).
type dirCache struct {
	fs  fault.FS
	dir string
}

func (c *dirCache) path(key string) string {
	return filepath.Join(c.dir, "automaton-"+key+".bin")
}

func (c *dirCache) Load(key string) []byte {
	b, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		return nil
	}
	return b
}

func (c *dirCache) Store(key string, data []byte) {
	// Best effort (see dirCache); a failed store leaves no file behind.
	_ = fault.WriteFileAtomic(c.fs, c.path(key)+".tmp", c.path(key), data)
}
