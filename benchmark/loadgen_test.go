package main

import (
	"errors"
	"testing"
	"time"
)

// Latency runs from the scheduled time, so one stalled operation is charged
// to every operation queued behind it; the generator's own lateness is not.
func TestOpenLoopChargesStallsFromSchedule(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 40 * time.Millisecond
	start := time.Now().Add(10 * time.Millisecond)
	var began []time.Time
	res := openLoop(start, interval, 6, func(k int) error {
		began = append(began, time.Now())
		if k == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res.latencyUs) != 6 || len(res.lateUs) != 6 || res.failed != 0 {
		t.Fatalf("got %d latencies, %d lateness samples, %d failures", len(res.latencyUs), len(res.lateUs), res.failed)
	}
	for k, at := range began {
		if due := start.Add(time.Duration(k) * interval); at.Before(due) {
			t.Errorf("op %d began %v before it was due", k, due.Sub(at))
		}
	}
	// Op 2 was due 5 ms after op 1 but could only start once the 40 ms stall
	// ended: its latency, counted from its due time, carries ~35 ms of wait.
	if got := res.latencyUs[2]; got < float64((stall-interval)/time.Microsecond)*0.9 {
		t.Errorf("op 2 latency %v us does not include the wait behind the stall", got)
	}
	// That wait is the system's, not the generator's: lateness stays small.
	if got := res.lateUs[2]; got > 20_000 {
		t.Errorf("op 2 lateness %v us blames the generator for the system's stall", got)
	}
	// Ops still on schedule have latency of the same order as their own cost.
	if got := res.latencyUs[0]; got > 20_000 {
		t.Errorf("op 0 latency %v us, want about nothing", got)
	}
}

func TestOpenLoopCountsFailuresWithoutLatency(t *testing.T) {
	res := openLoop(time.Now(), time.Millisecond, 4, func(k int) error {
		if k%2 == 1 {
			return errors.New("refused")
		}
		return nil
	})
	if res.failed != 2 || len(res.latencyUs) != 2 || len(res.lateUs) != 4 {
		t.Errorf("failed=%d latencies=%d lateness=%d; want 2, 2, 4", res.failed, len(res.latencyUs), len(res.lateUs))
	}
	var total openLoopResult
	total.merge(res)
	total.merge(res)
	if total.failed != 4 || len(total.latencyUs) != 4 {
		t.Errorf("merge: failed=%d latencies=%d; want 4, 4", total.failed, len(total.latencyUs))
	}
}
