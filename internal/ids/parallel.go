package ids

import (
	"runtime"
	"sync"

	"repro/internal/tcpasm"
)

// MatchSessionsParallel is MatchSessions across a worker pool. The engine is
// immutable after construction, so workers share it without locking; per-
// session results land in a preallocated slot array, keeping output order
// (and therefore downstream analyses) identical to the serial path.
// workers <= 0 selects GOMAXPROCS.
func MatchSessionsParallel(sessions []tcpasm.Session, e *Engine, stats *ScanStats, workers int) []Event {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(sessions) < 2*workers {
		return MatchSessions(sessions, e, stats)
	}
	evs, oks := MatchSessionsEach(sessions, e, workers)
	events := make([]Event, 0, len(sessions))
	for i := range oks {
		if oks[i] {
			events = append(events, evs[i])
		}
	}
	setMatchStats(stats, sessions, events)
	return events
}

// MatchSessionsEach evaluates every session and returns one slot per session
// (oks[i] false = no rule fired), preserving the session↔event pairing that
// the flattened MatchSessionsParallel result discards. The digest-recording
// ingest path needs the pairing: each session's digest stores its own
// ingest-time label. workers <= 0 selects GOMAXPROCS.
func MatchSessionsEach(sessions []tcpasm.Session, e *Engine, workers int) ([]Event, []bool) {
	evs := make([]Event, len(sessions))
	oks := make([]bool, len(sessions))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(sessions) < 2*workers {
		for i := range sessions {
			evs[i], oks[i] = MatchSession(&sessions[i], e)
		}
		return evs, oks
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				evs[i], oks[i] = MatchSession(&sessions[i], e)
			}
		}()
	}
	for i := range sessions {
		next <- i
	}
	close(next)
	wg.Wait()
	return evs, oks
}
