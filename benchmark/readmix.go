package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// read_mix is the read path: keep-alive clients send a seeded mix of cached
// reads, cache-missing as-of replays and diffs to a preloaded, sealed store,
// while a writer appends a batch on a fixed interval (every append moves the
// store generation and invalidates every cached body).
//
//	phase A  open loop at a frozen rate; latency from the scheduled send.
//	phase B  closed loop, passes of fixed length; requests per CPU-second.
//	serial   closed loop, one client, GOMAXPROCS=1.

// reqClass is what a request costs the server.
type reqClass uint8

const (
	classCached reqClass = iota // a body the response cache usually holds
	classAsOf                   // ?asof= at a fresh instant: a timeline replay
	classDiff                   // /v1/diff or /v1/skill: several replays
	numClasses
)

// mixer draws requests. The mix is 80% cached bodies (20 tables, 30 figures,
// 30 lifecycles zipf-ranked by how heavily each CVE is exploited — a few CVEs
// draw most reads, as they draw most traffic), 15% as-of reads at random
// instants (10 Table 4, 5 lifecycle), 5% diff and skill.
//
// The classes are dealt, not drawn: every hundred requests hold exactly that
// split, in shuffled order. The dear classes cost a hundred times the cheap
// ones, so letting their count per pass vary by chance would make a pass's
// time a property of the dice.
type mixer struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	c    *corpus
	deck []uint8 // the slots of the current hundred, shuffled
}

func newMixer(c *corpus, seed int64) *mixer {
	rng := rand.New(rand.NewSource(seed))
	return &mixer{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(c.cves)-1)), c: c}
}

// slot deals the next of a hundred slots.
func (m *mixer) slot() int {
	if len(m.deck) == 0 {
		m.deck = make([]uint8, 100)
		for i := range m.deck {
			m.deck[i] = uint8(i)
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	p := m.deck[len(m.deck)-1]
	m.deck = m.deck[:len(m.deck)-1]
	return int(p)
}

// instant is a uniformly random whole second inside the corpus's time span.
func (m *mixer) instant() time.Time { return m.instantAfter(m.c.from) }

// instantAfter is a uniformly random whole second in (from, corpus end].
func (m *mixer) instantAfter(from time.Time) time.Time {
	from = from.Truncate(time.Second).Add(time.Second)
	span := int64(m.c.to.Sub(from) / time.Second)
	return from.Add(time.Duration(m.rng.Int63n(span+1)) * time.Second).UTC()
}

func (m *mixer) cve() string { return m.c.cves[m.zipf.Uint64()] }

func stamp(t time.Time) string { return url.QueryEscape(t.Format(time.RFC3339)) }

func (m *mixer) next() (string, reqClass) {
	switch p := m.slot(); {
	case p < 20:
		return fmt.Sprintf("/v1/tables/%d", 3+m.rng.Intn(3)), classCached
	case p < 50:
		return fmt.Sprintf("/v1/figures/%d", 1+m.rng.Intn(12)), classCached
	case p < 80:
		return "/v1/lifecycles/CVE-" + m.cve(), classCached
	case p < 90:
		return "/v1/tables/4?asof=" + stamp(m.instant()), classAsOf
	case p < 95:
		// A CVE has a lifecycle only once its first event is in view.
		cve := m.cve()
		return "/v1/lifecycles/CVE-" + cve + "?asof=" + stamp(m.instantAfter(m.c.firstSeen[cve])), classAsOf
	default:
		a, b := m.instant(), m.instant()
		if b.Before(a) {
			a, b = b, a
		}
		if p%2 == 0 {
			return "/v1/diff?from=" + stamp(a) + "&to=" + stamp(b), classDiff
		}
		return "/v1/skill?from=" + stamp(a) + "&to=" + stamp(b) + "&step_days=90", classDiff
	}
}

// readRig is a rig preloaded with the corpus, sealed and checkpointed, with a
// writer appending behind the readers.
type readRig struct {
	*rig
	c         *corpus
	nextBatch int
	writeStop chan struct{}
	writeDone chan struct{}
	writeErr  error
	written   int
}

func newReadRig(dir string, c *corpus, chunks int) (*readRig, error) {
	g, err := newRig(dir, c, false, 0)
	if err != nil {
		return nil, err
	}
	rr := &readRig{rig: g, c: c}
	perChunk := (c.batches() + chunks - 1) / chunks
	for rr.nextBatch < c.batches() {
		for i := 0; i < perChunk && rr.nextBatch < c.batches(); i++ {
			if err := g.store.AppendBatch(c.batchAt(rr.nextBatch)); err != nil {
				rr.close()
				return nil, err
			}
			rr.nextBatch++
		}
		if err := g.store.Sync(); err != nil {
			rr.close()
			return nil, err
		}
		if _, err := g.tl.Seal(); err != nil {
			rr.close()
			return nil, err
		}
	}
	if err := g.tl.Checkpoint(); err != nil {
		rr.close()
		return nil, err
	}
	return rr, nil
}

// startWriter appends and commits one batch every interval until stopWriter.
func (rr *readRig) startWriter(every time.Duration) {
	rr.writeStop, rr.writeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rr.writeDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-rr.writeStop:
				return
			case <-t.C:
				err := rr.store.AppendBatch(rr.c.batchAt(rr.nextBatch))
				if err == nil {
					err = rr.store.Sync()
				}
				if err != nil {
					rr.writeErr = err
					return
				}
				rr.nextBatch++
				rr.written++
			}
		}
	}()
}

func (rr *readRig) stopWriter() error {
	if rr.writeStop != nil {
		close(rr.writeStop)
		<-rr.writeDone
		rr.writeStop = nil
	}
	return rr.writeErr
}

func (rr *readRig) close() error {
	werr := rr.stopWriter()
	if err := rr.rig.close(); err != nil {
		return err
	}
	return werr
}

// readStats is what a set of clients observed.
type readStats struct {
	byClass [numClasses]samples // closed loop: latency from send, us
	load    openLoopResult      // open loop: latency from the due time
	ok      int
	failed  int
}

func (s *readStats) merge(o *readStats) {
	for c := range s.byClass {
		s.byClass[c] = append(s.byClass[c], o.byClass[c]...)
	}
	s.load.merge(o.load)
	s.ok += o.ok
	s.failed += o.failed
}

// closedLoop keeps n clients sending for length, each sending its next request
// when the previous one completes. A pass is bounded by time, not by count,
// and lasts a whole number of the writer's intervals: every pass then holds
// the same number of generation bumps, each of which costs as much as
// hundreds of cached reads.
func closedLoop(base string, c *corpus, seed int64, n int, length time.Duration) (readStats, time.Duration) {
	parts := make([]readStats, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, mix, st := newClient(base), newMixer(c, seed+int64(i)), &parts[i]
			defer cl.close()
			for time.Since(t0) < length {
				path, class := mix.next()
				sent := time.Now()
				if _, err := cl.get(path); err != nil {
					st.failed++
					continue
				}
				st.byClass[class] = append(st.byClass[class], float64(time.Since(sent))/1e3)
				st.ok++
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all readStats
	for i := range parts {
		all.merge(&parts[i])
	}
	return all, wall
}

// pacedReads offers rate requests per second over n clients for length, each
// client on its own fixed schedule.
func pacedReads(base string, c *corpus, seed int64, n int, rate float64, length time.Duration) readStats {
	interval := time.Duration(float64(time.Second) * float64(n) / rate)
	per := int(length / interval)
	if per < 1 {
		per = 1
	}
	parts := make([]readStats, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, mix := newClient(base), newMixer(c, seed+int64(i))
			defer cl.close()
			// Stagger the clients so their schedules interleave.
			first := start.Add(time.Duration(i) * interval / time.Duration(n))
			parts[i].load = openLoop(first, interval, per, func(int) error {
				path, _ := mix.next()
				_, err := cl.get(path)
				return err
			})
			parts[i].failed = parts[i].load.failed
			parts[i].ok = per - parts[i].failed
		}(i)
	}
	wg.Wait()
	var all readStats
	for i := range parts {
		all.merge(&parts[i])
	}
	return all
}

// readShare splits the measuring time between the phases.
type readShare struct{ paced, closed, serial, traced float64 }

func runReadMix(r *run) (*outcome, error) {
	o := newOutcome("read_mix", r.seed, r.traced)
	setups := 0
	rr, setupS, err := medianSetup(r.sz.setups, func() (*readRig, error) {
		c, err := newCorpus(r.seed, r.sz.corpusScale, r.sz.batchEvents)
		if err != nil {
			return nil, err
		}
		setups++
		return newReadRig(filepath.Join(r.tmp, fmt.Sprintf("rig-%d", setups)), c, r.sz.sealChunks)
	}, func(rr *readRig) { rr.close() })
	if err != nil {
		return nil, fmt.Errorf("read_mix set-up: %w", err)
	}
	defer rr.close()
	c := rr.c

	shares := readShare{paced: 0.5, closed: 0.5}
	if r.traced {
		shares = readShare{paced: 0.25, closed: 0.15, serial: 0.15, traced: 0.45}
	}
	n := generators()
	// Each phase and pass draws its requests from its own seed, so that no
	// later pass replays instants the as-of cache has already seen.
	seeds := r.seed * 1_000_003
	nextSeed := func() int64 { seeds += 101; return seeds }

	passLength := time.Duration(r.sz.readPassTicks) * r.sz.writeEvery
	rr.startWriter(r.sz.writeEvery)
	for i := 0; i < r.sz.warmPasses; i++ { // warm-up, discarded
		st, _ := closedLoop(rr.base, c, nextSeed(), n, passLength)
		o.check(st.failed == 0, "warm-up: %d requests failed", st.failed)
	}

	smp := startSampler()
	defer smp.finish()
	var total readStats
	paced := pacedReads(rr.base, c, nextSeed(), n, r.sz.readRate, r.share(shares.paced))
	total.merge(&paced)

	// Phase B is rated over CPU time, not wall time. Two closed-loop clients
	// cannot keep two cores busy here — as-of replays serialize inside the
	// server and every reply waits for an idle core to wake — and on this kind
	// of VM that idle share moved the wall-clock rate by 15-20% between
	// identical runs while requests per CPU-second held within 3%. When the
	// processor is not fully busy, busy time is the honest measure of cost.
	var spent cost
	var closedStats readStats
	var wallRate samples
	closed, err := timedPasses(r.share(shares.closed), r.sz.minPasses, func() (pass, error) {
		start := readUsage()
		st, wall := closedLoop(rr.base, c, nextSeed(), n, passLength)
		used := readUsage().since(start)
		spent.add(used)
		closedStats.merge(&st)
		wallRate = append(wallRate, float64(st.ok)/wall.Seconds())
		return pass{over: used.cpu, units: float64(st.ok)}, nil
	})
	heap := smp.finish()
	if err != nil {
		return nil, err
	}
	total.merge(&closedStats)

	var serial []pass
	procs := runtime.GOMAXPROCS(0)
	if r.traced {
		runtime.GOMAXPROCS(1)
		serial, err = timedPasses(r.share(shares.serial), r.sz.minPasses, func() (pass, error) {
			start := readUsage()
			st, _ := closedLoop(rr.base, c, nextSeed(), 1, passLength)
			total.ok, total.failed = total.ok+st.ok, total.failed+st.failed
			return pass{over: readUsage().since(start).cpu, units: float64(st.ok)}, nil
		})
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
	}
	if err := rr.stopWriter(); err != nil {
		return nil, fmt.Errorf("read_mix writer: %w", err)
	}

	// The served Table 4 must equal a cold computation over the same store.
	cl := newClient(rr.base)
	defer cl.close()
	got, err := cl.get("/v1/tables/4")
	if err != nil {
		return nil, err
	}
	cold, _ := c.study.ResultsFromStore(rr.store)
	o.check(string(got) == cold.Table4().String(), "/v1/tables/4 differs from a cold ResultsFromStore")
	o.check(rr.store.Len() == (c.batches()+rr.written)*c.batch, "store holds %d events, %d were appended", rr.store.Len(), (c.batches()+rr.written)*c.batch)
	o.check(total.failed == 0, "%d requests failed", total.failed)

	o.Attempted, o.Failed = int64(total.ok+total.failed), int64(total.failed)
	lat := paced.load.latencyUs
	if !r.traced {
		latMs := make(samples, len(lat))
		for i, us := range lat {
			latMs[i] = us / 1e3
		}
		setEndToEnd(o, r, setupS, closed, latMs, heap)
		return o, nil
	}

	setPipeline(o, spent, closed, serial, procs, heap)
	o.set("serve.closed_req_per_s", wallRate.median(), len(wallRate))
	if supports(len(lat), 0.99) {
		o.set("read_p99_us", lat.quantile(0.99), len(lat))
	}
	setLoadgen(o, r, &paced.load)
	setStoreMetrics(o, rr.rig)
	if err := setServeMetrics(o, rr.rig, cl); err != nil {
		return nil, err
	}
	if err := traceBackend(r, o, c, r.sz.tracedReads, shares.traced); err != nil {
		return nil, err
	}
	// Loopback minus recorder: what HTTP and the socket add to a cached read.
	if rec := o.Metrics["serve.cached_us_p50"].Value; rec > 0 {
		o.set("serve.http_overhead_us", closedStats.byClass[classCached].median()-rec, len(closedStats.byClass[classCached]))
	}
	return o, nil
}
