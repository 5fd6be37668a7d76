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
// computation (eventstore.MergeEvents) over pinned immutable shard prefixes.
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
// like Study.ResultsFromStore's output under the daemon's cache.
func (inc *Incremental) Results() (*Results, uint64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for {
		gen := inc.store.Generation()
		if inc.valid && gen == inc.gen {
			return inc.res, inc.gen
		}
		parts := inc.store.PublishedEvents()
		amends := inc.store.Amendments()
		if inc.store.Generation() != gen {
			continue // an append raced the reads; retry for a stable view
		}
		var merged []ids.Event // set when a rebuild already paid for the merge
		if !inc.fold(parts, amends) {
			merged = inc.rebuild(parts, amends, gen)
		}
		inc.res, inc.gen, inc.valid = inc.materialize(parts, amends, merged), gen, true
		return inc.res, inc.gen
	}
}

// fold absorbs the view's new per-shard suffixes into the running aggregates.
// It reports false — leaving the aggregates untouched — when only a rebuild
// is correct: the first build, a changed amendment log, or a new raw event
// whose session an existing amendment claims (the overlay would replace or
// retract it, so counting its raw label would diverge from the cold path).
func (inc *Incremental) fold(parts [][]ids.Event, amends []eventstore.Amendment) bool {
	if !inc.valid || len(parts) != len(inc.positions) || len(amends) != inc.amendCount {
		return false
	}
	if len(inc.wins) > 0 {
		for i, p := range parts {
			for j := inc.positions[i]; j < len(p); j++ {
				if _, hit := inc.wins[eventstore.SessionKeyOf(&p[j])]; hit {
					return false
				}
			}
		}
	}
	n := 0
	for i, p := range parts {
		suffix := p[inc.positions[i]:]
		if len(suffix) == 0 {
			continue
		}
		inc.stats.AddEvents(suffix)
		inc.lc.AddEvents(suffix, inc.study.ruleset)
		inc.positions[i] = len(p)
		n += len(suffix)
	}
	inc.folds.Add(1)
	inc.foldedEvents.Add(uint64(n))
	return true
}

// rebuild recomputes the aggregates from scratch over the pinned view —
// exactly the cold path's merge, sort, and amendment overlay — and resets the
// fold positions to the view's edge. It returns the merged events.
func (inc *Incremental) rebuild(parts [][]ids.Event, amends []eventstore.Amendment, gen uint64) []ids.Event {
	merged := eventstore.MergeEvents(parts, amends)
	inc.stats = ids.NewStatsBuilder()
	inc.stats.AddEvents(merged)
	inc.lc = lifecycle.NewBuilder()
	inc.lc.AddEvents(merged, inc.study.ruleset)
	if inc.positions == nil || len(inc.positions) != len(parts) {
		inc.positions = make([]int, len(parts))
	}
	for i, p := range parts {
		inc.positions[i] = len(p)
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
	return merged
}

// materialize builds the Results for the current aggregates through the same
// finisher as the cold path. merged is the event set when the rebuild already
// paid for it; otherwise the set is lazy (figures and Table 5 pay the merge
// only if asked for), replaying Snapshot's exact computation over this view's
// pinned shard and amendment prefixes — appends only ever extend past the
// pinned lengths, so the closure's inputs never change under it.
func (inc *Incremental) materialize(parts [][]ids.Event, amends []eventstore.Amendment, merged []ids.Event) *Results {
	res := &Results{Stats: inc.stats.Stats(), Events: merged}
	if merged == nil {
		res.eventsFn = func() ([]ids.Event, error) {
			return eventstore.MergeEvents(parts, amends), nil
		}
	}
	return inc.study.finish(res, inc.lc.Timelines)
}
