// Package simtest is the deterministic simulation harness for the full
// sensor-fleet pipeline: it runs the 3-sensor → coordinator → wayback.Study
// stack with every durable file on a fault.SimFS and every fleet connection
// behind a fault.Network, under a seeded schedule of crashes, torn writes,
// failed fsyncs, connection resets, and partitions — restarting crashed
// processes in-loop and asserting the standing invariants after convergence:
//
//   - No acked batch is lost: the run ends with a deliberate power loss and
//     a recovery, and the recovered store must hold exactly the batch
//     study's events.
//   - No event is applied twice: the store's event multiset equals the
//     batch run's, and every coordinator watermark equals the sensor's last
//     assigned sequence.
//   - The paper's Table 4 over the recovered store is byte-identical to the
//     fault-free batch rendering.
//   - Time travel is stable: a timeline engine sealed over the recovered
//     store answers as-of queries exactly as the batch pipeline over the
//     time-filtered events, and byte-identically across one more power cycle.
//
// Any failing seed replays deterministically: `go test ./internal/simtest
// -fault.seed=N` reruns exactly that fault schedule.
//
// What the simulation may kill, and when, follows each component's stated
// contract. The coordinator claims exactly-once across arbitrary power loss
// (group commit + shard truncation to committed sizes + watermarks inside
// the commit record), so coordinator crashes are scheduled at arbitrary
// filesystem steps. The wire claims exactly-once under arbitrary loss and
// redelivery (CRC framing + cumulative watermarks), so connection faults
// and partitions are unrestricted. The sensor's contract is weaker by
// design — its checkpoint advances only at drain-consistent idle flushes,
// and a hard crash between flushes re-captures and re-ships events under
// fresh sequence numbers the coordinator cannot dedup (documented bounded
// duplication, see internal/ingest) — so for the byte-identical invariant
// sensors are killed only at quiescent points (everything durable, pipeline
// idle); TestMidStreamSensorKill covers the hard-crash case separately,
// asserting the no-loss half of the contract and measuring the duplication.
package simtest

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/ingest"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
	"repro/internal/timeline"
	"repro/wayback"
)

// Config is one simulation run.
type Config struct {
	// Seed drives every fault schedule in the run (filesystems and network
	// derive distinct sub-seeds from it).
	Seed int64
	// Scale is the wayback.Config workload scale. Zero means 20.
	Scale int
	// Sensors is the fleet size. Zero means 3.
	Sensors int
	// Coord is the coordinator filesystem's fault profile. The zero profile
	// injects nothing (but the run still ends in a deliberate power loss).
	Coord fault.Profile
	// Net is the connection fault profile (zero = a clean wire).
	Net fault.NetProfile
	// KillSensors kills and restarts each sensor once at a quiescent point
	// (spool, checkpoint, and watermark state all durable; pipeline idle).
	KillSensors bool
	// MidStreamKill hard-crashes sensor 0 while it is mid-stream, exercising
	// the documented bounded-duplication window. Runs with it set must be
	// checked with VerifyAtLeastOnce, not Verify.
	MidStreamKill bool
	// Partitions injects n asymmetric partition episodes while the fleet is
	// converging.
	Partitions int
	// Timeout bounds the whole run. Zero means 90s.
	Timeout time.Duration
}

// Result is what a run observed; Err holds the first invariant violation.
type Result struct {
	BatchEvents  int // events the fault-free batch study found
	StoreEvents  int // events in the recovered store after the final crash
	Lost         int // batch events missing from the store
	Duplicated   int // store events beyond their batch multiplicity
	CoordCrashes int // coordinator crash points that fired (incl. the final one)
	CoordFaults  int // injected coordinator I/O errors
	NetResets    int // connections killed by the byte-budget schedule
	SensorKills  int // sensor processes hard-crashed and restarted
	Table4OK     bool
	Err          error
}

func (r *Result) String() string {
	return fmt.Sprintf("batch=%d store=%d lost=%d dup=%d coordCrashes=%d coordFaults=%d netResets=%d sensorKills=%d table4=%v",
		r.BatchEvents, r.StoreEvents, r.Lost, r.Duplicated, r.CoordCrashes, r.CoordFaults, r.NetResets, r.SensorKills, r.Table4OK)
}

// batchTruth caches the fault-free batch run per (seed, scale): every
// simulation seed compares against the same ground truth, so recomputing it
// per seed would dominate the run.
var (
	truthMu sync.Mutex
	truths  = map[[2]int64]*truth{}
)

type truth struct {
	study   *wayback.Study
	scale   int
	events  []ids.Event
	table4  string
	byShard map[int][]int // sensors count -> per-shard event counts
}

const workloadSeed = 1 // the study workload seed; fault schedules use Config.Seed

func batchTruth(scale int) (*truth, error) {
	truthMu.Lock()
	defer truthMu.Unlock()
	key := [2]int64{workloadSeed, int64(scale)}
	if tr, ok := truths[key]; ok {
		return tr, nil
	}
	study, err := wayback.NewStudy(wayback.Config{Seed: workloadSeed, Scale: scale, PipelineTimelines: true})
	if err != nil {
		return nil, err
	}
	res, err := study.Run()
	if err != nil {
		return nil, err
	}
	tr := &truth{study: study, scale: scale, events: res.Events, table4: res.Table4().String(), byShard: map[int][]int{}}
	truths[key] = tr
	return tr, nil
}

// shardCounts memoizes per-shard counts in the shared truth; parallel seeds
// call it concurrently, so it holds truthMu.
func (tr *truth) shardCounts(shards int) []int {
	truthMu.Lock()
	defer truthMu.Unlock()
	if c, ok := tr.byShard[shards]; ok {
		return c
	}
	counts := make([]int, shards)
	for i := range tr.events {
		counts[fleet.ShardOf(tr.events[i].Dst.Addr, shards)]++
	}
	tr.byShard[shards] = counts
	return counts
}

// eventKey is an event's canonical identity: its store wire encoding. Using
// the codec keeps multiset comparison exactly as strict as the store's own
// roundtrip (anything the encoding cannot represent is, by definition, not
// state the pipeline promises to preserve).
func eventKey(ev *ids.Event) string {
	return string(eventstore.EncodeEvent(nil, ev))
}

// sim is one run's live state.
type sim struct {
	cfg      Config
	tr       *truth
	deadline time.Time

	coordFS *fault.SimFS
	nw      *fault.Network

	addr     string // the coordinator's pinned TCP address
	storeDir string // virtual path inside coordFS

	mu    sync.Mutex
	store *eventstore.Store
	fl    *fleet.Listener
	ln    net.Listener

	stopKeeper chan struct{}
	keeperDone chan struct{}
	keeperErr  error
}

// Run executes one simulation. The returned Result is non-nil even when
// Result.Err is set; only setup failures (not invariant violations) are
// returned as the second value.
func Run(cfg Config) (*Result, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 8
	}
	if cfg.Sensors == 0 {
		cfg.Sensors = 3
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 90 * time.Second
	}
	tr, err := batchTruth(cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:        cfg,
		tr:         tr,
		deadline:   time.Now().Add(cfg.Timeout),
		coordFS:    fault.NewSimFS(cfg.Seed, cfg.Coord),
		nw:         fault.NewNetwork(cfg.Seed+1, cfg.Net),
		storeDir:   "coord/store",
		stopKeeper: make(chan struct{}),
		keeperDone: make(chan struct{}),
	}
	res := &Result{BatchEvents: len(tr.events)}
	defer func() {
		res.CoordCrashes = s.coordFS.Crashes()
		res.CoordFaults = s.coordFS.Faults()
		res.NetResets = s.nw.Resets()
	}()
	if err := s.run(res); err != nil {
		res.Err = fmt.Errorf("seed %d: %w", cfg.Seed, err)
	}
	return res, nil
}

// openCoordinator opens (or reopens after a crash) the store + fleet
// listener on the pinned address, retrying through injected faults and
// crash points until the deadline.
func (s *sim) openCoordinator() error {
	var lastErr error
	for {
		if time.Now().After(s.deadline) {
			return fmt.Errorf("deadline opening coordinator (last error: %v)", lastErr)
		}
		if s.coordFS.Crashed() {
			s.coordFS.Restart()
		}
		store, err := eventstore.Open(s.storeDir, eventstore.Options{FS: s.coordFS})
		if err != nil {
			lastErr = err
			time.Sleep(2 * time.Millisecond)
			continue
		}
		var ln net.Listener
		if s.addr == "" {
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		} else {
			ln, err = net.Listen("tcp", s.addr)
		}
		if err != nil {
			lastErr = err
			store.Close()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		fl, err := fleet.Listen(fleet.ListenerConfig{
			Listener:       s.nw.WrapListener(ln),
			Sink:           store,
			Dir:            s.storeDir,
			FS:             s.coordFS,
			CommitInterval: 2 * time.Millisecond,
		})
		if err != nil {
			lastErr = err
			ln.Close()
			store.Close()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		s.store, s.fl, s.ln = store, fl, ln
		s.mu.Unlock()
		// s.addr is written exactly once, by the first open — which runs
		// synchronously before the keeper goroutine or any sensor exists.
		// Re-opens listen on the pinned address, so rewriting it would only
		// race with the sensors' lock-free reads.
		if s.addr == "" {
			s.addr = ln.Addr().String()
		}
		return nil
	}
}

// closeCoordinator tears the current incarnation down, tolerating the error
// storm of a crashed filesystem.
func (s *sim) closeCoordinator() {
	s.mu.Lock()
	store, fl, ln := s.store, s.fl, s.ln
	s.store, s.fl, s.ln = nil, nil, nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if fl != nil {
		fl.Close() // error expected when the FS is crashed
	}
	if store != nil {
		store.Close()
	}
}

// keeper is the "init system": it watches for the coordinator's filesystem
// to hit a crash point, and power-cycles the process when it does.
func (s *sim) keeper() {
	defer close(s.keeperDone)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopKeeper:
			return
		case <-tick.C:
			if !s.coordFS.Crashed() {
				continue
			}
			s.closeCoordinator()
			if err := s.openCoordinator(); err != nil {
				s.keeperErr = err
				return
			}
		}
	}
}

// sensorProc is one sensor "process": its shipper + ingest pipeline over a
// private SimFS (spool + checkpoint) and a real capture directory.
type sensorProc struct {
	id       string
	shard    int
	fs       *fault.SimFS
	watchDir string
	stateDir string
	finalCk  string // checkpoint content once the whole capture is consumed
	shipper  *fleet.Shipper
	pipeline *ingest.Pipeline
}

// finalCheckpoint is the INGEST checkpoint content that marks a fully
// consumed capture: the last segment at its full size. The capture is fully
// written before sensors start, so this is static for the whole run.
func finalCheckpoint(watchDir string) (string, error) {
	entries, err := os.ReadDir(watchDir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "dscope") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no capture segments in %s", watchDir)
	}
	sort.Strings(names)
	last := names[len(names)-1]
	fi, err := os.Stat(filepath.Join(watchDir, last))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d\n", last, fi.Size()), nil
}

// quiescent reports whether killing the sensor right now is within its
// contract: the pipeline has matched its whole shard, the durable
// checkpoint covers the final capture position (so a restart re-ingests
// nothing), and every byte of the sensor's durable state has reached the
// simulated platter (so a crash loses nothing).
func (p *sensorProc) quiescent(wantEvents int) bool {
	if p.pipeline.Metrics().Events != uint64(wantEvents) {
		return false
	}
	ck, ok := p.fs.DurableBytes(filepath.Join(p.stateDir, "INGEST-dscope"))
	if !ok || string(ck) != p.finalCk {
		return false
	}
	return p.fs.Quiescent()
}

func (s *sim) startSensor(p *sensorProc) error {
	shipper, err := fleet.StartShipper(fleet.ShipperConfig{
		Addr:           s.addr,
		SensorID:       p.id,
		Shard:          p.shard,
		Shards:         s.cfg.Sensors,
		StateDir:       p.stateDir,
		FS:             p.fs,
		Dial:           s.nw.Dial,
		Window:         4,
		HeartbeatEvery: 50 * time.Millisecond,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     80 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	pl, err := ingest.Start(ingest.Config{
		Dir:           p.watchDir,
		Prefix:        "dscope",
		Engine:        s.tr.study.Engine(),
		Sink:          shipper,
		CheckpointDir: p.stateDir,
		FS:            p.fs,
		PollInterval:  2 * time.Millisecond,
		FlushIdle:     25 * time.Millisecond,
		BatchSessions: 64,
	})
	if err != nil {
		shipper.Close()
		return err
	}
	p.shipper, p.pipeline = shipper, pl
	return nil
}

// stopSensor tears a sensor down, tolerating a crashed filesystem.
func stopSensor(p *sensorProc) {
	if p.pipeline != nil {
		p.pipeline.Close()
		p.pipeline = nil
	}
	if p.shipper != nil {
		p.shipper.Close()
		p.shipper = nil
	}
}

func (s *sim) run(res *Result) error {
	// Shard-partitioned captures on the real filesystem (capture is the
	// telescope's input, not the pipeline's durable state).
	watchDirs, cleanup, err := writeCaptures(s.tr, s.cfg.Sensors)
	if err != nil {
		return err
	}
	defer cleanup()

	if err := s.openCoordinator(); err != nil {
		return err
	}
	defer s.closeCoordinator()
	go s.keeper()
	defer func() {
		select {
		case <-s.stopKeeper:
		default:
			close(s.stopKeeper)
		}
		<-s.keeperDone
	}()

	sensors := make([]*sensorProc, s.cfg.Sensors)
	for i := range sensors {
		finalCk, err := finalCheckpoint(watchDirs[i])
		if err != nil {
			return err
		}
		sensors[i] = &sensorProc{
			id:       fmt.Sprintf("sensor-%d", i),
			shard:    i,
			fs:       fault.NewSimFS(s.cfg.Seed+10+int64(i), fault.Profile{}),
			watchDir: watchDirs[i],
			stateDir: fmt.Sprintf("sensor-%d/state", i),
			finalCk:  finalCk,
		}
		if err := s.startSensor(sensors[i]); err != nil {
			return err
		}
	}
	defer func() {
		for _, p := range sensors {
			stopSensor(p)
		}
	}()

	// Partition episodes while the fleet converges: cut one direction, let
	// the retry machinery flail, heal.
	if s.cfg.Partitions > 0 {
		for i := 0; i < s.cfg.Partitions; i++ {
			time.Sleep(30 * time.Millisecond)
			s.nw.Partition(i%2 == 0, i%2 == 1)
			time.Sleep(20 * time.Millisecond)
			s.nw.Partition(false, false)
		}
	}

	counts := s.tr.shardCounts(s.cfg.Sensors)

	// Mid-stream hard crash: kill sensor 0 while it is still shipping —
	// before its pipeline has consumed the whole capture.
	if s.cfg.MidStreamKill {
		p := sensors[0]
		deadline := s.deadline
		for p.pipeline.Metrics().Events == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		p.fs.Crash()
		stopSensor(p)
		p.fs.Restart()
		res.SensorKills++
		if err := s.startSensor(p); err != nil {
			return fmt.Errorf("restarting mid-stream-killed sensor: %w", err)
		}
	}

	// Quiescent kills: once a sensor has ingested its whole shard and every
	// byte of its durable state (spool, checkpoint) has hit the simulated
	// platter, a hard crash is within its contract — restart and it must
	// resume without loss or duplication.
	if s.cfg.KillSensors {
		for i, p := range sensors {
			for {
				if time.Now().After(s.deadline) {
					return fmt.Errorf("deadline waiting for sensor %d quiescence (ingested %d/%d)",
						i, p.pipeline.Metrics().Events, counts[i])
				}
				if p.quiescent(counts[i]) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			p.fs.Crash()
			stopSensor(p)
			p.fs.Restart()
			res.SensorKills++
			if err := s.startSensor(p); err != nil {
				return fmt.Errorf("restarting sensor %d: %w", i, err)
			}
		}
	}

	// Convergence: drain each pipeline (the capture is fully written, so
	// Close consumes the rest), then wait until the coordinator has acked
	// every spooled batch.
	for i, p := range sensors {
		if err := p.pipeline.Close(); err != nil {
			return fmt.Errorf("sensor %d pipeline drain: %w", i, err)
		}
	}
	for i, p := range sensors {
		ctx, cancel := context.WithDeadline(context.Background(), s.deadline)
		err := p.shipper.WaitDrained(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("sensor %d never drained: %v (%+v)", i, err, p.shipper.Metrics())
		}
	}

	// Stop the keeper, then end the run the honest way: a power loss at
	// rest. Everything acked must survive this.
	close(s.stopKeeper)
	<-s.keeperDone
	if s.keeperErr != nil {
		return s.keeperErr
	}

	// Audit the live coordinator's watermarks against the sensors' assigned
	// sequences before the final crash (the watermark is also recovered and
	// re-audited after it).
	finalSeqs := make([]sensorSeqs, len(sensors))
	for i, p := range sensors {
		m := p.shipper.Metrics()
		finalSeqs[i] = sensorSeqs{last: m.LastSeq, acked: m.AckedSeq}
		if m.Spooled != 0 || m.AckedSeq != m.LastSeq {
			return fmt.Errorf("sensor %d: drained but spool not empty: %+v", i, m)
		}
		stopSensor(p)
	}

	s.coordFS.Crash()
	s.closeCoordinator()
	s.coordFS.Restart()
	if err := s.openCoordinator(); err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}

	return s.verify(res, finalSeqs, s.cfg.MidStreamKill)
}

// sensorSeqs is a sensor's final sequence accounting at shutdown.
type sensorSeqs struct{ last, acked uint64 }

// verify checks the standing invariants against the freshly recovered
// store. atLeastOnce relaxes "exactly the batch events" to "at least the
// batch events" for runs that exercised the sensor's documented
// bounded-duplication window.
func (s *sim) verify(res *Result, seqs []sensorSeqs, atLeastOnce bool) error {
	s.mu.Lock()
	store, fl := s.store, s.fl
	s.mu.Unlock()

	want := map[string]int{}
	for i := range s.tr.events {
		want[eventKey(&s.tr.events[i])]++
	}
	got := store.Snapshot().Events()
	res.StoreEvents = len(got)
	have := map[string]int{}
	for i := range got {
		have[eventKey(&got[i])]++
	}
	for k, n := range want {
		if have[k] < n {
			res.Lost += n - have[k]
		}
	}
	for k, n := range have {
		if w := want[k]; n > w {
			res.Duplicated += n - w
		}
	}
	if res.Lost > 0 {
		return fmt.Errorf("acked data lost: %d of %d batch events missing from the recovered store (store holds %d)",
			res.Lost, res.BatchEvents, res.StoreEvents)
	}
	if res.Duplicated > 0 && !atLeastOnce {
		dupByShard := map[int]int{}
		for i := range got {
			k := eventKey(&got[i])
			if have[k] > want[k] {
				dupByShard[fleet.ShardOf(got[i].Dst.Addr, len(seqs))]++
			}
		}
		return fmt.Errorf("%d events applied more than once (store holds %d, batch found %d; duplicate-holding rows per fleet shard %v; finalSeqs %+v; recovered wm %v)",
			res.Duplicated, res.StoreEvents, res.BatchEvents, dupByShard, seqs, fl.Watermarks().All())
	}

	// Recovered watermarks must cover every acked sequence: an ack is a
	// durability promise.
	for i := range seqs {
		id := fmt.Sprintf("sensor-%d", i)
		if w := fl.Watermarks().Get(id); w < seqs[i].acked {
			return fmt.Errorf("%s: recovered watermark %d below acked sequence %d — an acked batch was not durable",
				id, w, seqs[i].acked)
		}
	}

	if !atLeastOnce {
		table4 := s.tr.study.ResultsFromEvents(got).Table4().String()
		res.Table4OK = table4 == s.tr.table4
		if !res.Table4OK {
			return fmt.Errorf("recovered Table 4 differs from the fault-free batch run")
		}
		if err := s.verifyAsOf(got); err != nil {
			return fmt.Errorf("as-of: %w", err)
		}
	}
	return nil
}

// verifyAsOf checks the time-travel invariant on the recovered store: a
// timeline engine sealed over it answers Table 4 at a mid-study cut and at
// the end exactly as the batch pipeline over the time-filtered events would,
// and the answers are byte-identical before and after one more power cycle
// (the engine's own segments and checkpoints must recover too).
func (s *sim) verifyAsOf(got []ids.Event) error {
	if len(got) == 0 {
		return nil
	}
	mid, final := got[0].Time, got[0].Time
	for i := range got {
		if got[i].Time.After(final) {
			final = got[i].Time
		}
	}
	final = final.Add(time.Hour)
	times := make([]time.Time, len(got))
	for i := range got {
		times[i] = got[i].Time
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	mid = times[len(times)/2]

	cut := func(t time.Time) []ids.Event {
		var out []ids.Event
		for i := range got {
			if !got[i].Time.After(t) {
				out = append(out, got[i])
			}
		}
		return out
	}
	wantMid := s.tr.study.ResultsFromEvents(cut(mid)).Table4().String()
	wantFinal := s.tr.study.ResultsFromEvents(cut(final)).Table4().String()

	const tlDir = "coord/timeline"
	answers := func() (string, string, error) {
		s.mu.Lock()
		store := s.store
		s.mu.Unlock()
		eng, err := s.tr.study.OpenTimeline(tlDir, store, timeline.Config{
			FS:            s.coordFS,
			SegmentEvents: 256, CheckpointEvery: 1,
		})
		if err != nil {
			return "", "", err
		}
		if _, err := eng.Seal(); err != nil {
			return "", "", err
		}
		vm, err := eng.AsOf(mid)
		if err != nil {
			return "", "", err
		}
		vf, err := eng.AsOf(final)
		if err != nil {
			return "", "", err
		}
		return s.tr.study.ResultsFromView(vm).Table4().String(),
			s.tr.study.ResultsFromView(vf).Table4().String(), nil
	}
	// Retry through injected faults and crash points exactly as the keeper
	// would: power-cycle the coordinator and ask again.
	ask := func() (string, string, error) {
		for {
			if time.Now().After(s.deadline) {
				return "", "", fmt.Errorf("deadline answering as-of queries")
			}
			a, b, err := answers()
			if err == nil && !s.coordFS.Crashed() {
				return a, b, nil
			}
			s.closeCoordinator()
			if s.coordFS.Crashed() {
				s.coordFS.Restart()
			}
			if err := s.openCoordinator(); err != nil {
				return "", "", err
			}
		}
	}
	gotMid, gotFinal, err := ask()
	if err != nil {
		return err
	}
	if gotMid != wantMid {
		return fmt.Errorf("Table 4 as of the mid-study cut differs from the batch run over the same events")
	}
	if gotFinal != wantFinal {
		return fmt.Errorf("Table 4 as of the end differs from the batch run")
	}

	// One more deliberate power loss: the sealed segments and checkpoints
	// must recover and answer byte-identically.
	s.coordFS.Crash()
	s.closeCoordinator()
	s.coordFS.Restart()
	if err := s.openCoordinator(); err != nil {
		return fmt.Errorf("recovery before re-asking: %w", err)
	}
	againMid, againFinal, err := ask()
	if err != nil {
		return err
	}
	if againMid != gotMid || againFinal != gotFinal {
		return fmt.Errorf("as-of answers changed across crash/restart")
	}
	return nil
}

// writeCaptures renders the telescope workload into per-shard rotating pcap
// directories on the real filesystem.
func writeCaptures(tr *truth, shards int) ([]string, func(), error) {
	bps, err := scanner.Build(scanner.Config{Seed: workloadSeed, Scale: scaleOf(tr)})
	if err != nil {
		return nil, nil, err
	}
	sessions := telescope.NewSim(telescope.SimConfig{Seed: workloadSeed}).Sessions(bps)
	root, err := os.MkdirTemp("", "simtest-*")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(root) }
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/shard-%d", root, i)
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			cleanup()
			return nil, nil, err
		}
		w, err := pcapio.NewRotatingWriter(dirs[i], "dscope", pcapio.LinkTypeEthernet, 128<<10, pcapio.WithNanoPrecision())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		var mine []tcpasm.Session
		for j := range sessions {
			if fleet.ShardOf(sessions[j].Server.Addr, shards) == i {
				mine = append(mine, sessions[j])
			}
		}
		if err := telescope.SessionsToPcap(mine, w, workloadSeed); err != nil {
			w.Close()
			cleanup()
			return nil, nil, err
		}
		if err := w.Close(); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return dirs, cleanup, nil
}

// scaleOf recovers the scale a truth was built with (the cache key is not
// threaded through; the study carries it).
func scaleOf(tr *truth) int { return tr.scale }
