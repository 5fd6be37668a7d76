package ids

import (
	"runtime"
	"sync"

	"repro/internal/tcpasm"
)

const (
	// stageQueue bounds the batches submitted but not yet picked up: Submit
	// blocks beyond it, so a slow deliver callback backpressures the
	// producer while the in-flight window, and so memory, stays small.
	stageQueue    = 4
	matchAllChunk = 256 // the most sessions per batch MatchAll submits
)

// MatchBatch is one unit of work for a MatchStage: Sessions evaluated
// against Engine. The worker fills Events with the matched events in session
// order, and Hits[k] with the index in Sessions of Events[k]'s session.
type MatchBatch struct {
	Sessions []tcpasm.Session
	Engine   *Engine
	Events   []Event
	Hits     []int

	deliver func(*MatchBatch) // set by Submit
}

// MatchStage is a set of long-lived match workers. Each worker matches a
// submitted batch serially, so its pooled match scratch stays warm and no
// batch forks or joins, then hands it to the batch's deliver callback.
// Deliveries come in completion order, from any worker, but never
// concurrently: the stage holds one mutex across each deliver call, so a
// blocking callback stalls only the other workers' deliveries.
type MatchStage struct {
	workers int
	queue   chan *MatchBatch
	wg      sync.WaitGroup
	mu      sync.Mutex // held across each deliver call
}

// NewMatchStage starts workers match workers; workers <= 0 selects
// GOMAXPROCS. The workers run until Close.
func NewMatchStage(workers int) *MatchStage {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &MatchStage{workers: workers, queue: make(chan *MatchBatch, stageQueue)}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.work()
	}
	return s
}

func (s *MatchStage) work() {
	defer s.wg.Done()
	// Matches collect in scratch the worker reuses, so a batch's results
	// cost one exact-size allocation each rather than a run of regrowths.
	var evs []Event
	var hits []int
	for b := range s.queue {
		evs, hits = evs[:0], hits[:0]
		for i := range b.Sessions {
			if ev, ok := MatchSession(&b.Sessions[i], b.Engine); ok {
				evs = append(evs, ev)
				hits = append(hits, i)
			}
		}
		b.Events = append([]Event(nil), evs...) // nil when nothing matched
		b.Hits = append([]int(nil), hits...)
		s.mu.Lock()
		b.deliver(b)
		s.mu.Unlock()
	}
}

// Submit queues b for matching and returns; deliver receives it once it is
// matched. Submit blocks while the queue is full. It is safe to call from
// several goroutines, but not after Close.
func (s *MatchStage) Submit(b *MatchBatch, deliver func(*MatchBatch)) {
	b.deliver = deliver
	s.queue <- b
}

// Close stops taking batches and returns once every submitted batch has been
// delivered and the workers have exited.
func (s *MatchStage) Close() {
	close(s.queue)
	s.wg.Wait()
}

// MatchAll matches sessions against e on the stage and returns the matched
// events in session order, with hits[k] the index of events[k]'s session —
// exactly what MatchSessions would return, plus the pairing. The sessions go
// out in chunks of min(256, ⌈n/workers⌉), so every worker gets a share of
// even a small input.
func (s *MatchStage) MatchAll(sessions []tcpasm.Session, e *Engine) (events []Event, hits []int) {
	n := len(sessions)
	size := max(1, min(matchAllChunk, (n+s.workers-1)/s.workers))
	parts := make([]MatchBatch, (n+size-1)/size)
	var wg sync.WaitGroup
	wg.Add(len(parts))
	done := func(*MatchBatch) { wg.Done() }
	for k := range parts {
		parts[k] = MatchBatch{Sessions: sessions[k*size : min((k+1)*size, n)], Engine: e}
		s.Submit(&parts[k], done)
	}
	wg.Wait()
	for k := range parts {
		events = append(events, parts[k].Events...)
		for _, h := range parts[k].Hits {
			hits = append(hits, k*size+h)
		}
	}
	return events, hits
}

// MatchSessionsParallel is MatchSessions on a match stage of the given
// width (workers <= 0: GOMAXPROCS). The engine is immutable after
// construction, so workers share it without locking, and MatchAll keeps
// session order, so the events and stats are identical to the serial path.
func MatchSessionsParallel(sessions []tcpasm.Session, e *Engine, stats *ScanStats, workers int) []Event {
	stage := NewMatchStage(workers)
	events, _ := stage.MatchAll(sessions, e)
	stage.Close()
	setMatchStats(stats, sessions, events)
	return events
}
