package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/ids"
)

// fleet_ingest is the write path: shippers spool and ship event batches over
// loopback TCP to the fleet listener, which group-commits them to the on-disk
// store; the timeline seals behind it and a poller reads /v1/tables/4.
//
//	phase A  closed loop: every shipper spools its share of a fixed batch count
//	         flat out, then waits for the last ack. Events acked per second.
//	phase B  open loop: batches are offered at a frozen rate while a poller
//	         fetches Table 4 on a frozen interval. Freshness per batch.
//	serial   closed loop, one shipper, one batch in flight, GOMAXPROCS=1.

// fleetShare splits the measuring time between the phases.
type fleetShare struct{ flatOut, paced, serial, traced float64 }

// drainWait bounds how long a pass waits for acks before the outstanding
// batches count as failed.
const drainWait = 60 * time.Second

// maxShippers caps the sensors of a rig; fewer when there are fewer cores.
const maxShippers = 4

// fleetRig is a rig with its shippers.
type fleetRig struct {
	*rig
	ships []*fleet.Shipper
}

func newFleetRig(dir string, c *corpus, nShips int, tickEvery time.Duration) (*fleetRig, error) {
	g, err := newRig(dir, c, true, tickEvery)
	if err != nil {
		return nil, err
	}
	fr := &fleetRig{rig: g}
	for i := 0; i < nShips; i++ {
		s, err := fleet.StartShipper(fleet.ShipperConfig{
			Addr:     g.listener.Addr().String(),
			SensorID: fmt.Sprintf("bench-%d", i),
			Shard:    i, Shards: nShips,
			StateDir: filepath.Join(dir, fmt.Sprintf("sensor-%d", i)),
		})
		if err != nil {
			fr.close()
			return nil, err
		}
		fr.ships = append(fr.ships, s)
	}
	return fr, nil
}

func (fr *fleetRig) close() error {
	var first error
	for _, s := range fr.ships {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := fr.rig.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// waitAcked polls until the shipper's spool is fully acked or the deadline
// passes. Shipper.WaitDrained polls on a 5 ms ticker, too coarse to time one
// ack with.
func waitAcked(s *fleet.Shipper, deadline time.Time) bool {
	for !s.Drained() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// fleetGauges accumulates what the listener's and shippers' exported
// counters showed while fleet passes ran.
type fleetGauges struct {
	current    *fleetRig // the rig being polled; nil between passes
	queueDepth maxGauge
	spoolDepth maxGauge
	fsyncMs    samples
	commits    uint64
	coalesced  uint64
	dups       uint64
	reconnects uint64
}

func (fg *fleetGauges) poll() {
	if fg.current == nil {
		return
	}
	cs := fg.current.listener.CommitStats()
	fg.queueDepth.observe(int64(cs.QueueDepth))
	if cs.LastFsyncNanos > 0 {
		fg.fsyncMs = append(fg.fsyncMs, float64(cs.LastFsyncNanos)/1e6)
	}
	for _, s := range fg.current.ships {
		fg.spoolDepth.observe(int64(s.Metrics().Spooled))
	}
}

// retire folds a finished rig's cumulative counters in.
func (fg *fleetGauges) retire(fr *fleetRig) {
	cs := fr.listener.CommitStats()
	fg.commits += cs.Commits
	fg.coalesced += cs.CoalescedBatches
	_, _, dups := fr.listener.Totals()
	fg.dups += dups
	for _, s := range fr.ships {
		fg.reconnects += s.Metrics().Reconnects
	}
}

// fleetRun is the state of one fleet_ingest run.
type fleetRun struct {
	r      *run
	o      *outcome
	c      *corpus
	smp    *sampler
	gauges fleetGauges
	rigs   int // scratch directory counter
	// attempted and failed count batches over every timed phase.
	attempted, failed int64
}

// withRig runs fn against a fresh fleet rig, polls its gauges meanwhile, and
// checks afterwards that the store holds exactly what was shipped.
func (f *fleetRun) withRig(nShips int, fn func(fr *fleetRig) (shipped int, err error)) error {
	f.rigs++
	fr, err := newFleetRig(filepath.Join(f.r.tmp, fmt.Sprintf("rig-%d", f.rigs)), f.c, nShips, f.r.sz.tickEvery)
	if err != nil {
		return err
	}
	f.smp.exclusive(func() { f.gauges.current = fr })
	shipped, err := fn(fr)
	f.smp.exclusive(func() { f.gauges.current = nil })
	if err == nil {
		f.o.check(fr.store.Len() == shipped, "store holds %d events, %d were shipped", fr.store.Len(), shipped)
		_, _, dups := fr.listener.Totals()
		f.o.check(dups == 0, "listener dropped %d duplicate batches", dups)
		f.o.check(fr.listener.Err() == nil, "listener failed: %v", fr.listener.Err())
		f.gauges.retire(fr)
	}
	if cerr := fr.close(); err == nil {
		err = cerr
	}
	return err
}

// flatOut ships batches [0,n) as fast as the shippers take them, batch k on
// shipper k mod len(ships), and waits for every ack. It returns the events
// acked and the wall time from first spool write to last ack.
func (f *fleetRun) flatOut(fr *fleetRig, n int) (events int, wall time.Duration, err error) {
	var wg sync.WaitGroup
	errs := make([]error, len(fr.ships))
	unacked := make([]int, len(fr.ships))
	t0 := time.Now()
	for i, s := range fr.ships {
		wg.Add(1)
		go func(i int, s *fleet.Shipper) {
			defer wg.Done()
			for k := i; k < n; k += len(fr.ships) {
				if err := s.AppendBatch(f.c.batchAt(k)); err != nil {
					errs[i] = err
					return
				}
			}
			if !waitAcked(s, time.Now().Add(drainWait)) {
				unacked[i] = s.Metrics().Spooled
			}
		}(i, s)
	}
	wg.Wait()
	wall = time.Since(t0)
	f.attempted += int64(n)
	for i := range errs {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("spooling a batch: %w", errs[i])
		}
		f.failed += int64(unacked[i])
		n -= unacked[i]
	}
	return n * f.c.batch, wall, nil
}

// oneAtATime ships batches [0,n) through the rig's first shipper, each only
// after the previous one's ack, timing every ack. It returns the events acked.
func (f *fleetRun) oneAtATime(fr *fleetRig, n int, ackMs *samples) (int, error) {
	for k := 0; k < n; k++ {
		sent := time.Now()
		f.attempted++
		if err := fr.ships[0].AppendBatch(f.c.batchAt(k)); err != nil {
			return 0, fmt.Errorf("spooling a batch: %w", err)
		}
		if !waitAcked(fr.ships[0], sent.Add(drainWait)) {
			f.failed++
			return k * f.c.batch, nil
		}
		*ackMs = append(*ackMs, float64(time.Since(sent))/1e6)
	}
	return n * f.c.batch, nil
}

// checkTable4 compares the rig's served Table 4 with the one a batch study
// computes from exactly the events that were shipped.
func (f *fleetRun) checkTable4(fr *fleetRig, batches int) error {
	var shipped []ids.Event
	for k := 0; k < batches; k++ {
		shipped = append(shipped, f.c.batchAt(k)...)
	}
	want := f.c.study.ResultsFromEvents(shipped).Table4().String()
	cl := newClient(fr.base)
	defer cl.close()
	got, err := cl.get("/v1/tables/4")
	if err != nil {
		return err
	}
	f.o.check(string(got) == want, "/v1/tables/4 differs from ResultsFromEvents(shipped).Table4()")
	return nil
}

func runFleetIngest(r *run) (*outcome, error) {
	o := newOutcome("fleet_ingest", r.seed, r.traced)
	setups := 0
	c, setupS, err := medianSetup(r.sz.setups, func() (*corpus, error) {
		c, err := newCorpus(r.seed, r.sz.corpusScale, r.sz.batchEvents)
		if err != nil {
			return nil, err
		}
		// A rig is built and torn down once here so that its cost — opening
		// the store, journals, spools and listeners — is part of set-up.
		setups++
		fr, err := newFleetRig(filepath.Join(r.tmp, fmt.Sprintf("setup-%d", setups)), c, shippers(), r.sz.tickEvery)
		if err != nil {
			return nil, err
		}
		return c, fr.close()
	}, func(*corpus) {})
	if err != nil {
		return nil, fmt.Errorf("fleet_ingest set-up: %w", err)
	}

	shares := fleetShare{flatOut: 0.45, paced: 0.55}
	if r.traced {
		shares = fleetShare{flatOut: 0.15, paced: 0.25, serial: 0.15, traced: 0.45}
	}
	f := &fleetRun{r: r, o: o, c: c, smp: startSampler()}
	defer f.smp.finish()
	f.smp.watch(f.gauges.poll)

	// Warm-up, discarded: a flat-out pass whose served Table 4 is compared
	// byte for byte with the batch computation over the shipped events.
	for i := 0; i < r.sz.warmPasses; i++ {
		err := f.withRig(shippers(), func(fr *fleetRig) (int, error) {
			events, _, err := f.flatOut(fr, r.sz.fleetPassBatches)
			if err != nil || i > 0 {
				return events, err
			}
			return events, f.checkTable4(fr, r.sz.fleetPassBatches)
		})
		if err != nil {
			return nil, err
		}
	}
	f.attempted, f.failed = 0, 0

	// Phase A.
	var spent cost
	flat, err := timedPasses(r.share(shares.flatOut), r.sz.minPasses, func() (pass, error) {
		var p pass
		err := f.withRig(shippers(), func(fr *fleetRig) (int, error) {
			start := readUsage()
			events, wall, err := f.flatOut(fr, r.sz.fleetPassBatches)
			spent.add(readUsage().since(start))
			p = pass{over: wall, units: float64(events)}
			return events, err
		})
		return p, err
	})
	if err != nil {
		return nil, err
	}

	// Phase B.
	paced, err := f.pacedPhase(r.share(shares.paced))
	if err != nil {
		return nil, err
	}
	if !r.traced {
		o.Attempted, o.Failed = f.attempted, f.failed+int64(f.gauges.dups)
		setEndToEnd(o, r, setupS, flat, paced.freshMs, f.smp.finish())
		return o, nil
	}

	// Serial phase: one shipper, one batch in flight, one core.
	procs := runtime.GOMAXPROCS(1)
	var ackMs samples
	serial, err := timedPasses(r.share(shares.serial), r.sz.minPasses, func() (pass, error) {
		var p pass
		err := f.withRig(1, func(fr *fleetRig) (int, error) {
			t0 := time.Now()
			events, err := f.oneAtATime(fr, r.sz.fleetSerialBatches, &ackMs)
			p = pass{over: time.Since(t0), units: float64(events)}
			return events, err
		})
		return p, err
	})
	runtime.GOMAXPROCS(procs)
	heap := f.smp.finish()
	if err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = f.attempted, f.failed+int64(f.gauges.dups)

	setPipeline(o, spent, flat, serial, procs, heap)
	if supports(len(paced.freshMs), 0.95) {
		o.set("freshness_p95_ms", paced.freshMs.quantile(0.95), len(paced.freshMs))
	}
	o.set("fleet.ack_ms_p50", ackMs.median(), len(ackMs))
	if supports(len(ackMs), 0.95) {
		o.set("fleet.ack_ms_p95", ackMs.quantile(0.95), len(ackMs))
	}
	g := &f.gauges
	o.set("fleet.commits", float64(g.commits), 0)
	if g.commits > 0 {
		o.set("fleet.batches_per_commit", float64(g.coalesced)/float64(g.commits), 0)
	}
	o.set("fleet.fsync_ms_p50", g.fsyncMs.median(), len(g.fsyncMs))
	o.set("fleet.commit_queue_depth_max", float64(g.queueDepth.v), 0)
	o.set("fleet.spool_depth_max", float64(g.spoolDepth.v), 0)
	o.set("fleet.dup_batches", float64(g.dups), 0)
	o.set("fleet.reconnects", float64(g.reconnects), 0)
	setLoadgen(o, r, &paced.load)
	if err := traceBackend(r, o, c, r.sz.tracedWrites, shares.traced); err != nil {
		return nil, err
	}
	return o, nil
}

// setLoadgen reports how an open-loop phase's generator behaved, and flags
// the run when the generator itself was the slow part.
func setLoadgen(o *outcome, r *run, load *openLoopResult) {
	late := load.lateUs.quantile(0.99)
	o.set("loadgen.late_us_p99", late, len(load.lateUs))
	o.set("loadgen.sent", float64(len(load.lateUs)), 0)
	if late > r.sz.lateLimitUs {
		o.note("INVALID: the open-loop generator ran %.0f us late at p99 (limit %.0f us): the run measured its own load generator", late, r.sz.lateLimitUs)
	}
}

// shippers is how many sensors a fleet rig runs.
func shippers() int {
	if n := generators(); n < maxShippers {
		return n
	}
	return maxShippers
}

// pacedResult is what the open-loop phase measured.
type pacedResult struct {
	freshMs samples
	load    openLoopResult
}

// pacedPhase offers batches at sizes.fleetRate for the given time while one
// poller GETs /v1/tables/4 every sizes.pollEvery. A batch's freshness runs
// from its due time to the completion of the first poll that was issued
// after the shipper's cumulative ack covered the batch.
func (f *fleetRun) pacedPhase(length time.Duration) (pacedResult, error) {
	var res pacedResult
	nShips := shippers()
	interval := time.Duration(float64(time.Second) * float64(nShips) / f.r.sz.fleetRate)
	perShip := int(length / interval)
	if perShip < 1 {
		perShip = 1
	}
	err := f.withRig(nShips, func(fr *fleetRig) (int, error) {
		cl := newClient(fr.base)
		defer cl.close()
		// The first read pays the one full build; every poll after it folds.
		if _, err := cl.get("/v1/tables/4"); err != nil {
			return 0, err
		}
		start := time.Now().Add(10 * time.Millisecond)
		due := func(k int) time.Time { return start.Add(time.Duration(k) * interval) }

		var wg sync.WaitGroup
		loads := make([]openLoopResult, nShips)
		for i, s := range fr.ships {
			wg.Add(1)
			go func(i int, s *fleet.Shipper) {
				defer wg.Done()
				loads[i] = openLoop(start, interval, perShip, func(k int) error {
					return s.AppendBatch(f.c.batchAt(k*nShips + i))
				})
			}(i, s)
		}

		// The poller runs on this goroutine. It notes, per batch, when the
		// first poll issued after the batch's ack completed.
		served := make([][]time.Time, nShips)
		for i := range served {
			served[i] = make([]time.Time, 0, perShip)
		}
		acked := make([]uint64, nShips)
		deadline := start.Add(length + drainWait)
		pollFailures := 0
		for next := start; ; {
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			for i, s := range fr.ships {
				acked[i] = s.Metrics().AckedSeq
			}
			_, err := cl.get("/v1/tables/4")
			done := time.Now()
			finished := true
			for i := range fr.ships {
				if err == nil {
					// Sequence numbers start at 1: batch k of a shipper is seq k+1.
					for uint64(len(served[i])) < acked[i] {
						served[i] = append(served[i], done)
					}
				}
				finished = finished && len(served[i]) >= perShip
			}
			if err != nil {
				pollFailures++
			}
			if finished || done.After(deadline) {
				break
			}
			// Polls are open loop too: a slow poll skips the ticks it overran.
			for next = next.Add(f.r.sz.pollEvery); next.Before(done); next = next.Add(f.r.sz.pollEvery) {
			}
		}
		wg.Wait()
		shipped := 0
		for i := range fr.ships {
			// Freshness runs from when the batch was due, less the sender's
			// own lag in spooling it, to the completion of that poll.
			for k, at := range served[i] {
				fresh := at.Sub(due(k)) - time.Duration(loads[i].lateUs[k]*1e3)
				res.freshMs = append(res.freshMs, float64(fresh)/1e6)
			}
			res.load.merge(loads[i])
			f.attempted += int64(perShip)
			f.failed += int64(perShip - len(served[i]))
			shipped += perShip - loads[i].failed
		}
		f.failed += int64(pollFailures)
		f.o.check(pollFailures == 0, "%d polls of /v1/tables/4 failed", pollFailures)

		if f.r.traced {
			// Read the rig's own counters before it closes.
			setStoreMetrics(f.o, fr.rig)
			if err := setServeMetrics(f.o, fr.rig, cl); err != nil {
				return 0, err
			}
		}
		return shipped * f.c.batch, nil
	})
	return res, err
}
