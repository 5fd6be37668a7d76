package wayback

import (
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/lifecycle"
)

// Incremental maintains the study's table/figure aggregates as deltas over a
// live event store, so a generation bump costs O(new events) instead of a
// full replay. It is the read path's counterpart to the merge-parity builders
// (ids.StatsBuilder, lifecycle.Builder): those make any split of the event
// stream aggregate identically, and Incremental exploits that by folding only
// each shard's unseen suffix on every generation move.
//
// Amendments break the pure-fold model: a retroactive re-attribution rewrites
// history rather than extending it, and so does a raw event arriving for a
// session an amendment already claimed (the overlay would swallow or replace
// it). Both cases fall back to a full rebuild — loud (logged) and metered
// (Metrics.Rebuilds) so an operator can see when the O(new) promise is not
// being kept.
//
// Results handed out are byte-for-byte identical to a cold
// Study.ResultsFromStore at the same generation (proven by parity tests):
// the aggregates commute, and the lazy event set replays exactly Snapshot's
// computation (Store.Merge) over pinned immutable shard parts. Events the
// store released from memory since the last call (a timeline seal can
// overtake a slow reader) are read back from the shard logs by range; only
// a rebuild reads the whole released history, and it folds that history
// into the aggregates without keeping it.
type Incremental struct {
	study *Study
	store *eventstore.Store

	mu         sync.Mutex
	stats      *ids.StatsBuilder
	lc         *lifecycle.Builder
	positions  []int // per-shard events already folded
	amendCount int   // amendment records accounted for (via the last rebuild)
	wins       map[any]eventstore.Amendment
	gen        uint64
	res        *Results
	valid      bool

	folds        atomic.Uint64
	foldedEvents atomic.Uint64
	rebuilds     atomic.Uint64
}

// NewIncremental returns an Incremental view of st under this study's
// configuration. The first Results call pays one full build; every later
// generation bump folds only the new events unless an amendment forces a
// rebuild.
func (s *Study) NewIncremental(st *eventstore.Store) *Incremental {
	return &Incremental{study: s, store: st}
}

// IncrementalMetrics counts how generation moves were absorbed.
type IncrementalMetrics struct {
	// Folds is the number of generation moves absorbed as pure deltas.
	Folds uint64
	// FoldedEvents is the total events folded across all deltas.
	FoldedEvents uint64
	// Rebuilds is the number of full recomputes: the initial build plus
	// every amendment-driven fallback. A growing value under steady ingest
	// means re-attribution is defeating the incremental path.
	Rebuilds uint64
}

// Metrics returns the fold/rebuild counters. Safe without the lock.
func (inc *Incremental) Metrics() IncrementalMetrics {
	return IncrementalMetrics{
		Folds:        inc.folds.Load(),
		FoldedEvents: inc.foldedEvents.Load(),
		Rebuilds:     inc.rebuilds.Load(),
	}
}

// Results returns the Results for the store's current generation, folding
// only the events appended since the previous call. Safe for concurrent use;
// callers must treat the returned Results as shared and read-only, exactly
// like Study.ResultsFromStore's output under the daemon's cache. It fails
// when released history it needs cannot be read back from the store.
func (inc *Incremental) Results() (*Results, uint64, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for {
		gen := inc.store.Generation()
		if inc.valid && gen == inc.gen {
			return inc.res, inc.gen, nil
		}
		parts := inc.store.PublishedEvents()
		amends := inc.store.Amendments()
		if inc.store.Generation() != gen {
			continue // an append raced the reads; retry for a stable view
		}
		folded, err := inc.fold(parts, amends)
		if err == nil && !folded {
			err = inc.rebuild(parts, amends, gen)
		}
		if err != nil {
			return nil, 0, err
		}
		inc.res, inc.gen, inc.valid = inc.materialize(parts, amends), gen, true
		return inc.res, inc.gen, nil
	}
}

// fold absorbs the view's new per-shard suffixes into the running aggregates.
// It reports false — leaving the aggregates untouched — when only a rebuild
// is correct: the first build, a changed amendment log, or a new raw event
// whose session an existing amendment claims (the overlay would replace or
// retract it, so counting its raw label would diverge from the cold path).
func (inc *Incremental) fold(parts []eventstore.Part, amends []eventstore.Amendment) (bool, error) {
	if !inc.valid || len(parts) != len(inc.positions) || len(amends) != inc.amendCount {
		return false, nil
	}
	suffixes := make([][]ids.Event, len(parts))
	for i, p := range parts {
		suffix, err := inc.suffix(i, p)
		if err != nil {
			return false, err
		}
		suffixes[i] = suffix
	}
	if len(inc.wins) > 0 {
		for _, suffix := range suffixes {
			for j := range suffix {
				if _, hit := inc.wins[eventstore.SessionKeyOf(&suffix[j])]; hit {
					return false, nil
				}
			}
		}
	}
	n := 0
	for i, suffix := range suffixes {
		if len(suffix) == 0 {
			continue
		}
		inc.stats.AddEvents(suffix)
		inc.lc.AddEvents(suffix, inc.study.ruleset)
		inc.positions[i] = parts[i].Len()
		n += len(suffix)
	}
	inc.folds.Add(1)
	inc.foldedEvents.Add(uint64(n))
	return true, nil
}

// suffix returns shard i's events past the fold position. They are the
// part's resident events unless a release overtook the position; then the
// released stretch is read back from the shard's log and the suffix is a
// copy.
func (inc *Incremental) suffix(i int, p eventstore.Part) ([]ids.Event, error) {
	pos := inc.positions[i]
	if pos >= p.Base {
		return p.Tail(pos)
	}
	out := make([]ids.Event, 0, p.Len()-pos)
	err := inc.store.ReadRange(i, pos, p.Base, func(ev *ids.Event) error {
		out = append(out, *ev)
		return nil
	})
	return append(out, p.Events...), err
}

// rebuild recomputes the aggregates from scratch over the pinned view —
// exactly the cold path's merge, sort, and amendment overlay — and resets the
// fold positions to the view's edge. The merged events are dropped once
// folded: after releases they are the whole history read back from the logs.
func (inc *Incremental) rebuild(parts []eventstore.Part, amends []eventstore.Amendment, gen uint64) error {
	merged, err := inc.store.Merge(parts, amends)
	if err != nil {
		return err
	}
	inc.stats = ids.NewStatsBuilder()
	inc.stats.AddEvents(merged)
	inc.lc = lifecycle.NewBuilder()
	inc.lc.AddEvents(merged, inc.study.ruleset)
	if inc.positions == nil || len(inc.positions) != len(parts) {
		inc.positions = make([]int, len(parts))
	}
	for i, p := range parts {
		inc.positions[i] = p.Len()
	}
	inc.amendCount = len(amends)
	inc.wins = eventstore.ResolveAmendments(amends)
	inc.rebuilds.Add(1)
	if inc.valid {
		// A fallback, not the initial build: the incremental promise was not
		// kept for this generation. Loud on purpose — under steady ingest this
		// line appearing per generation means re-attribution churn is turning
		// every bump into a full replay.
		log.Printf("wayback: incremental fallback: full rebuild at generation %d (%d events, %d amendment records)",
			gen, len(merged), len(amends))
	}
	return nil
}

// materialize builds the Results for the current aggregates through the same
// finisher as the cold path. The event set is lazy (figures and Table 5 pay
// the merge only if asked for), replaying Snapshot's exact computation over
// this view's pinned shard parts and amendment prefix — appends only ever
// extend past the pinned lengths and released events stay in the logs, so
// the closure's inputs never change under it.
func (inc *Incremental) materialize(parts []eventstore.Part, amends []eventstore.Amendment) *Results {
	store := inc.store
	res := &Results{Stats: inc.stats.Stats(), eventsFn: func() ([]ids.Event, error) {
		return store.Merge(parts, amends)
	}}
	return inc.study.finish(res, inc.lc.Timelines)
}
