package wayback

import (
	"repro/internal/eventstore"
	"repro/internal/timeline"
)

// OpenTimeline attaches a time-travel engine to a store, sealing segments
// and checkpoints under dir. The engine's lifecycle aggregate is
// parameterized by this study's rule publications, so as-of timelines match
// what the batch pipeline would produce over the same events.
func (s *Study) OpenTimeline(dir string, st *eventstore.Store, cfg timeline.Config) (*timeline.Engine, error) {
	cfg.Dir = dir
	cfg.Store = st
	cfg.RulePub = s.RulePublications()
	return timeline.Open(cfg)
}

// ResultsFromView builds a Results from a time-travel view — the study as
// it stood at v.Time(). Tables and lifecycles come straight from the view's
// checkpointed aggregates (cost proportional to events since the nearest
// checkpoint); the raw event set is materialized lazily, only if a figure
// or Table 5 asks for the full distribution.
//
// With Config.PipelineTimelines unset the static Appendix E timelines are
// used, exactly as in ResultsFromEvents — as-of then only affects stats,
// figures, and event-derived analyses.
func (s *Study) ResultsFromView(v *timeline.View) *Results {
	return s.finish(&Results{Stats: v.Stats(), eventsFn: v.Events}, v.Timelines)
}
