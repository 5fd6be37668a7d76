package main

import (
	"time"
)

// openLoopResult is what one generator goroutine observed.
type openLoopResult struct {
	// latencyUs runs from the time the operation was DUE to its completion,
	// so a stall delays — and is charged to — every operation queued behind
	// it (no coordinated omission), less the generator's own lag for that
	// operation (lateUs), which is no fault of the system: on this kind of
	// machine a sleeping goroutine wakes 0.3-1 ms late. Failed operations
	// have no latency sample.
	latencyUs samples
	// lateUs is the generator's own lag: how long each operation started
	// after the moment it could have — its due time, or the completion of the
	// previous operation on this connection if that came later. Waiting behind
	// a slow reply is the system's doing and shows in latencyUs; starting late
	// with the connection free is the generator's (timer overshoot, no CPU
	// to run on), and a large value means the run measured the generator.
	lateUs samples
	failed int
}

// openLoop issues op(0), op(1), ... op(n-1) from the calling goroutine, op k
// no earlier than start + k*interval and regardless of how the earlier ones
// fared: the schedule never slows down because the system did.
func openLoop(start time.Time, interval time.Duration, n int, op func(k int) error) openLoopResult {
	res := openLoopResult{
		latencyUs: make(samples, 0, n),
		lateUs:    make(samples, 0, n),
	}
	free := start // when the connection was last ready for the next operation
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if due.After(free) {
			free = due
		}
		late := time.Since(free)
		res.lateUs = append(res.lateUs, float64(late)/1e3)
		err := op(k)
		free = time.Now()
		if err != nil {
			res.failed++
			continue
		}
		res.latencyUs = append(res.latencyUs, float64(free.Sub(due)-late)/1e3)
	}
	return res
}

// merge folds another generator's observations into r.
func (r *openLoopResult) merge(o openLoopResult) {
	r.latencyUs = append(r.latencyUs, o.latencyUs...)
	r.lateUs = append(r.lateUs, o.lateUs...)
	r.failed += o.failed
}
