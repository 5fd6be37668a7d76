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
	parallelChunk = 256 // the most sessions per batch MatchSessionsParallel submits
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

// MatchSessionsParallel is MatchSessions on a match stage of the given
// width (workers <= 0: GOMAXPROCS). The sessions go out in chunks of
// min(256, ⌈n/workers⌉), so every worker gets a share of even a small
// input, and the chunks' events are joined in chunk order. The engine is
// immutable after construction, so workers share it without locking, and
// the events and stats are identical to the serial path's.
func MatchSessionsParallel(sessions []tcpasm.Session, e *Engine, stats *ScanStats, workers int) []Event {
	stage := NewMatchStage(workers)
	n := len(sessions)
	size := max(1, min(parallelChunk, (n+stage.workers-1)/stage.workers))
	parts := make([]MatchBatch, (n+size-1)/size)
	for k := range parts {
		parts[k] = MatchBatch{Sessions: sessions[k*size : min((k+1)*size, n)], Engine: e}
		stage.Submit(&parts[k], func(*MatchBatch) {})
	}
	stage.Close() // every part is delivered
	var events []Event
	for k := range parts {
		events = append(events, parts[k].Events...)
	}
	setMatchStats(stats, sessions, events)
	return events
}
