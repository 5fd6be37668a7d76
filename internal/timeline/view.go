package timeline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/lifecycle"
)

// View is the study's state as of a fixed time t: every event with
// Event.Time <= t, regardless of when it arrived. The aggregate (stats and
// lifecycle timelines) is computed eagerly at AsOf time from a checkpoint
// plus its delta; raw events are read only if Read or Events is called,
// since tables and lifecycles never need them.
type View struct {
	t   time.Time
	eng *Engine
	agg *Aggregate

	// snap is the engine state the view reads, so it stays consistent while
	// new segments seal underneath it.
	snap *snapshot

	// replayed counts the delta events folded in on top of the checkpoint —
	// the work AsOf actually did, surfaced for tests and logging.
	replayed int

	// amended counts distinct sessions whose labels at this view's time
	// differ from the sealed raw history; resolved holds the full re-labeled
	// event list when any amendments apply (nil otherwise).
	amended  int
	resolved []ids.Event

	eventsOnce sync.Once
	events     []ids.Event
	eventsErr  error
}

// snapshot is the engine state one query reads: the sealed segments and
// checkpoints, the published events past the sealed counts, the amendment
// log, and the store generation all of them reflect. A skill series takes
// one and reads every step from it.
type snapshot struct {
	gen    uint64
	segs   []*segmentMeta
	ckpts  []*ckptMeta
	tail   [][]ids.Event // per shard: published events not yet sealed
	amends []eventstore.Amendment
}

func (e *Engine) snapshot() (*snapshot, error) {
	// The store's parts are read under the lock Seal releases under, so no
	// release can pass the sealed counts read with them: the tail past them
	// is resident. Published slices are immutable prefixes, so the tail is
	// safe to keep once the lock is dropped.
	e.mu.RLock()
	defer e.mu.RUnlock()
	for {
		gen := e.store.Generation()
		parts := e.store.PublishedEvents()
		amends := e.store.Amendments()
		if e.store.Generation() != gen {
			continue // an append raced the reads; retry for a stable view
		}
		s := &snapshot{
			gen:    gen,
			segs:   e.segments[:len(e.segments):len(e.segments)],
			ckpts:  e.checkpoints[:len(e.checkpoints):len(e.checkpoints)],
			amends: amends,
		}
		for i, shard := range parts {
			from := 0
			if e.sealed != nil && i < len(e.sealed) {
				from = min(int(e.sealed[i]), shard.Len())
			}
			tail, err := shard.Tail(from)
			if err != nil {
				return nil, fmt.Errorf("timeline: shard %d: %w", i, err)
			}
			s.tail = append(s.tail, tail)
		}
		return s, nil
	}
}

// held is what an aggregate already holds, so a fold adds every other event
// once: of segments [0, k), the events at or before cut (a checkpoint's
// coverage); of the later segments and the tail, the events at or before lo
// when hasLo (the previous point of a forward sweep), else none.
type held struct {
	k     int
	cut   time.Time
	hasLo bool
	lo    time.Time
}

// fold calls fn for every event of the snapshot with Time <= hi that h does
// not hold. It is the one scan behind as-of views, forward sweeps, event
// reads and checkpoint builds. Segments wholly outside a bound
// are skipped on their metadata alone. Nothing is copied on the way: a
// segment's events are decoded in place into one reused Event whose CVE and
// message strings are shared across the fold, and the unsealed tail's are
// the store's own, so fn may read *ev but must neither modify nor keep it.
func (s *snapshot) fold(fs fault.FS, h held, hi time.Time, fn func(*ids.Event) error) error {
	names := make(map[string]string)
	for i, m := range s.segs {
		hasLo, lo := h.hasLo, h.lo
		if i < h.k {
			hasLo, lo = true, h.cut
		}
		if err := m.scanRange(fs, names, hasLo, lo, hi, fn); err != nil {
			return err
		}
	}
	for _, shard := range s.tail {
		for i := range shard {
			ev := &shard[i]
			if ev.Time.After(hi) || h.hasLo && !ev.Time.After(h.lo) {
				continue
			}
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// AsOf returns the view of the log at time t. Cost is proportional to the
// events after the nearest checkpoint at or before t (plus the unsealed
// tail), not the full log.
func (e *Engine) AsOf(t time.Time) (*View, error) {
	s, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	return e.viewAt(s, t)
}

// viewAt builds the view at t over a snapshot: the newest checkpoint whose
// cut is at or before t, plus the events it does not hold.
func (e *Engine) viewAt(s *snapshot, t time.Time) (*View, error) {
	v := &View{t: t, eng: e, snap: s}
	agg := NewAggregate()
	var h held
	for i := len(s.ckpts) - 1; i >= 0; i-- {
		if c := s.ckpts[i]; !c.Cut.After(t) {
			// Its aggregate covers segments [0..K) completely (cut is their
			// max event time).
			base, err := e.loadAggregate(c)
			if err != nil {
				return nil, err
			}
			agg = base.Clone()
			h = held{k: c.K, cut: c.Cut}
			break
		}
	}
	err := s.fold(e.fs, h, t, func(ev *ids.Event) error {
		agg.AddOne(ev, e.rulePub)
		v.replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	v.agg = agg
	if err := v.overlayAmendments(); err != nil {
		return nil, err
	}
	return v, nil
}

// overlayAmendments re-labels the view under the store's amendment log. When
// a retroactive rescan has re-attributed sessions at or before t, the
// aggregate assembled above (which covers sealed raw history) is discarded
// and rebuilt from the resolved event list, so Stats, Timelines, and diffs
// all answer under earliest-published-match over the current ruleset.
//
// Views over unamended history pay nothing. Views that do intersect
// amendments pay one full materialization: sealed segments stay raw — the
// original record is never rewritten — so exactness has to come from a
// replay. Re-attribution is an operator-triggered exception, not the steady
// state, and the cost is the same full scan Events already performs.
func (v *View) overlayAmendments() error {
	appl := amendmentsBy(v.snap.amends, v.t)
	if len(appl) == 0 {
		return nil
	}
	raw, err := v.snap.read(v.eng.fs, v.t, Filter{})
	if err != nil {
		return err
	}
	resolved := eventstore.ApplyAmendments(raw, appl)
	agg := NewAggregate()
	agg.Stats.AddSessions(v.agg.Stats.Stats().Sessions)
	agg.Stats.AddAmbiguous(v.agg.Stats.Stats().AmbiguousSessions)
	agg.Add(resolved, v.eng.rulePub)
	v.agg = agg
	v.resolved = resolved
	v.amended = len(eventstore.ResolveAmendments(appl))
	return nil
}

// amendmentsBy returns the amendments that apply at time t. An amendment's
// Event.Time is the session start even for retractions, so the time filter
// is exact.
func amendmentsBy(all []eventstore.Amendment, t time.Time) []eventstore.Amendment {
	var appl []eventstore.Amendment
	for _, a := range all {
		if !a.Event.Time.After(t) {
			appl = append(appl, a)
		}
	}
	return appl
}

// Time returns the as-of instant.
func (v *View) Time() time.Time { return v.t }

// Generation returns the store generation the view reflects: the events,
// sealed or not, and the amendments it reads are exactly the store's at
// that generation.
func (v *View) Generation() uint64 { return v.snap.gen }

// Replayed reports how many events were folded in beyond the checkpoint —
// the incremental work this view cost.
func (v *View) Replayed() int { return v.replayed }

// Amended reports the distinct sessions whose labels at this view's time
// differ from the sealed raw history — zero when no re-attribution applies.
func (v *View) Amended() int { return v.amended }

// EventCount returns the number of events in the view.
func (v *View) EventCount() int { return v.agg.EventCount() }

// Stats returns the scan statistics as of the view's time. Sessions and
// packet counters are zero: the log records attributed events, not raw
// traffic, matching wayback.ResultsFromEvents.
func (v *View) Stats() ids.ScanStats { return v.agg.Stats.Stats() }

// Timelines returns the per-CVE lifecycle timelines as of the view's time —
// identical to running the batch pipeline over only the events with
// Time <= t.
func (v *View) Timelines() []lifecycle.Timeline { return v.agg.Life.Timelines() }

// Forever is an instant after every event: AsOf(Forever) is the view of
// everything stored.
var Forever = time.Unix(1<<62, 0).UTC()

// Filter selects events by CVE and by a half-open time range. Its zero value
// selects every event.
type Filter struct {
	CVE   string    // only events attributed to this CVE ("YYYY-NNNN"); "" = any
	Since time.Time // only events with Time >= Since; zero = no lower bound
	Until time.Time // only events with Time < Until; zero = no upper bound
}

func (f Filter) keep(ev *ids.Event) bool {
	return (f.CVE == "" || ev.CVE == f.CVE) &&
		(f.Since.IsZero() || !ev.Time.Before(f.Since)) &&
		(f.Until.IsZero() || ev.Time.Before(f.Until))
}

// Read returns the view's events that f selects, canonically ordered
// (eventstore.SortEvents), under the amendments that apply at the view's
// time. Over unamended history it is one fold of the segments and the
// unsealed tail, which reads only the segment byte ranges the time bounds
// reach. An amended view selects from its resolved event list instead.
func (v *View) Read(f Filter) ([]ids.Event, error) {
	if v.resolved == nil {
		return v.snap.read(v.eng.fs, v.t, f)
	}
	if f == (Filter{}) {
		return v.resolved, nil
	}
	var out []ids.Event
	for i := range v.resolved {
		if f.keep(&v.resolved[i]) {
			out = append(out, v.resolved[i])
		}
	}
	return out, nil
}

// Events returns every event in the view: Read with no filter, computed
// once per view. Callers must treat the slice as read-only.
func (v *View) Events() ([]ids.Event, error) {
	v.eventsOnce.Do(func() { v.events, v.eventsErr = v.Read(Filter{}) })
	return v.events, v.eventsErr
}

// read collects the snapshot's raw events with Time <= t that f selects,
// before any amendment overlay, canonically ordered. f's time bounds narrow
// the fold itself, so segments wholly outside them are not read.
func (s *snapshot) read(fs fault.FS, t time.Time, f Filter) ([]ids.Event, error) {
	var h held
	if !f.Since.IsZero() {
		// Times are whole nanoseconds: Time > Since-1ns is Time >= Since.
		h = held{hasLo: true, lo: f.Since.Add(-time.Nanosecond)}
	}
	if !f.Until.IsZero() && f.Until.Add(-time.Nanosecond).Before(t) {
		t = f.Until.Add(-time.Nanosecond)
	}
	var out []ids.Event
	err := s.fold(fs, h, t, func(ev *ids.Event) error {
		if f.keep(ev) {
			out = append(out, *ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	eventstore.SortEvents(out)
	return out, nil
}

// EventChange describes one lifecycle event's movement between two views.
type EventChange struct {
	Type EventType `json:"type"`
	// Letter is the paper's single-letter name for the event (V F D P X A).
	Letter string     `json:"letter"`
	From   *time.Time `json:"from,omitempty"` // nil when unknown at the from time
	To     *time.Time `json:"to,omitempty"`   // nil when unknown at the to time
}

// EventType aliases lifecycle.EventType for JSON-facing diff output.
type EventType = lifecycle.EventType

// CVEDiff is one CVE's lifecycle delta between two as-of views.
type CVEDiff struct {
	CVE string `json:"cve"`
	// New marks a CVE with no attributed events at the from time.
	New bool `json:"new,omitempty"`
	// EventsFrom/EventsTo are attributed exploit-event volumes.
	EventsFrom int `json:"events_from"`
	EventsTo   int `json:"events_to"`
	// Changed lists lifecycle events that appeared or moved.
	Changed []EventChange `json:"changed,omitempty"`
}

// DiffTimelines compares two sets of lifecycle timelines (from earlier and
// later views) and reports, per CVE, which lifecycle events appeared or
// moved and how the attributed event volume grew. CVEs with no change are
// omitted; the result is sorted by CVE.
func DiffTimelines(from, to []lifecycle.Timeline) []CVEDiff {
	prev := make(map[string]*lifecycle.Timeline, len(from))
	for i := range from {
		prev[from[i].CVE] = &from[i]
	}
	var out []CVEDiff
	for i := range to {
		tl := &to[i]
		p := prev[tl.CVE]
		d := CVEDiff{CVE: tl.CVE, EventsTo: tl.EventCount}
		if p == nil {
			d.New = true
		} else {
			d.EventsFrom = p.EventCount
		}
		for et := lifecycle.EventType(0); int(et) < len(tl.Events); et++ {
			toAt, toKnown := tl.Get(et)
			var fromAt time.Time
			fromKnown := false
			if p != nil {
				fromAt, fromKnown = p.Get(et)
			}
			if toKnown == fromKnown && (!toKnown || toAt.Equal(fromAt)) {
				continue
			}
			ch := EventChange{Type: et, Letter: et.Letter()}
			if fromKnown {
				at := fromAt
				ch.From = &at
			}
			if toKnown {
				at := toAt
				ch.To = &at
			}
			d.Changed = append(d.Changed, ch)
		}
		if d.New || len(d.Changed) > 0 || d.EventsTo != d.EventsFrom {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CVE < out[j].CVE })
	return out
}

// SkillPoint is one sample of the disclosure skill score over time.
type SkillPoint struct {
	Date      time.Time `json:"date"`
	CVEs      int       `json:"cves"`
	Events    int       `json:"events"`
	MeanSkill float64   `json:"mean_skill"`
	Skillful  int       `json:"skillful"`
}

// SkillSeries evaluates the paper's coordination-skill score (Table 4's
// mean skill against the published baselines) at each step between from and
// to inclusive — the "how did measured skill evolve as evidence accrued"
// series. The series reads one snapshot of the log. Its first point is an
// as-of view (a checkpoint plus its delta); each later point folds forward
// only the events in (previous step, step], so a whole sweep costs about
// one replay. When a re-attribution applies at or before to, the labels of
// earlier events can change between steps, and every step is an as-of view
// of its own over the same snapshot.
func (e *Engine) SkillSeries(from, to time.Time, step time.Duration) ([]SkillPoint, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeline: skill series step must be positive")
	}
	if to.Before(from) {
		return nil, fmt.Errorf("timeline: skill series range is inverted")
	}
	s, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	perStep := len(amendmentsBy(s.amends, to)) > 0
	baselines := core.PublishedBaselines()
	var out []SkillPoint
	var agg *Aggregate
	var prev time.Time
	for t := from; !t.After(to); prev, t = t, t.Add(step) {
		if agg == nil || perStep {
			v, err := e.viewAt(s, t)
			if err != nil {
				return nil, err
			}
			agg = v.agg
		} else {
			err := s.fold(e.fs, held{hasLo: true, lo: prev}, t, func(ev *ids.Event) error {
				agg.AddOne(ev, e.rulePub)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		tls := agg.Life.Timelines()
		res := core.EvaluateDesiderata(tls, baselines)
		out = append(out, SkillPoint{
			Date:      t,
			CVEs:      len(tls),
			Events:    agg.EventCount(),
			MeanSkill: core.MeanSkill(res),
			Skillful:  core.SkillfulCount(res),
		})
	}
	return out, nil
}
