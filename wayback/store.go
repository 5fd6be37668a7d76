package wayback

import (
	"repro/internal/eventstore"
	"repro/internal/ids"
)

// OpenStore opens (creating if needed) a waybackd event store — the
// append-only log the streaming ingest daemon writes. The returned store is
// the bridge between continuous capture and the paper's batch analyses: feed
// its snapshots to Study.ResultsFromEvents and every table and figure method
// works on live data.
func OpenStore(dir string) (*eventstore.Store, error) {
	return eventstore.Open(dir, eventstore.Options{})
}

// ResultsFromEvents builds a Results from an externally captured event set —
// typically an eventstore snapshot — instead of running the simulated
// workload. Lifecycle assembly follows the study configuration: with
// Config.PipelineTimelines the timelines are derived from the events
// themselves (order-insensitively, so any stable event ordering yields
// identical tables); otherwise the embedded Appendix E timelines are used.
//
// Stats covers only what events alone can tell: matched counts, distinct
// CVEs and sources. Capture-side numbers (packets, sessions) live with the
// capture pipeline, not the store.
func (s *Study) ResultsFromEvents(events []ids.Event) *Results {
	b := ids.NewStatsBuilder()
	b.AddEvents(events)
	return s.finish(&Results{Events: events, Stats: b.Stats()}, nil)
}

// ResultsFromStore builds a Results from the store's current snapshot and
// returns the snapshot generation alongside it. The generation changes
// exactly when new events land, so callers (the daemon's query layer) can
// cache the Results — and everything derived from it — keyed by generation.
func (s *Study) ResultsFromStore(st *eventstore.Store) (*Results, uint64) {
	sn := st.Snapshot()
	return s.ResultsFromEvents(sn.Events()), sn.Generation()
}
