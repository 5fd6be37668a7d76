package wayback

import (
	"repro/internal/eventstore"
	"repro/internal/ids"
)

// OpenStore opens (creating if needed) a waybackd event store — the
// append-only log the streaming ingest daemon writes. The daemon reads it
// through a timeline engine (Study.OpenTimeline): tables, figures and raw
// events, now or as of a cut, from sealed segments plus the store's unsealed
// tail. Study.ResultsFromStore is the batch bridge: it merges the whole store
// once, and every table and figure method works on the result.
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

// ResultsFromStore builds a Results from the store's current snapshot — the
// cold path the incremental view (Study.NewIncremental) must match. It fails
// when the snapshot cannot read the store's released history back from its
// logs. Callers that key caches by generation take Store.Snapshot's
// Generation and call ResultsFromEvents.
func (s *Study) ResultsFromStore(st *eventstore.Store) (*Results, error) {
	sn, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.ResultsFromEvents(sn.Events()), nil
}
