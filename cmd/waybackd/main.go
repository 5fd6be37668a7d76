// Command waybackd is the streaming counterpart of waybackctl: a daemon
// that tails a directory of rotating pcap segments (as written by a
// telescope's packet recorder, or by waybackfeed), incrementally reassembles
// and matches the traffic against the dated IDS ruleset, appends attributed
// events to a crash-safe on-disk event store, and serves the paper's tables
// and figures over HTTP — recomputed only when new events land.
//
// Usage:
//
//	waybackd -watch capture/ -store events/ [-addr :8416] [-seed 1]
//	         [-prefix dscope] [-timelines pipeline|appendix]
//	         [-poll 100ms] [-flush-idle 2s] [-batch 256] [-workers 0]
//	         [-fleet-listen :8417] [-stale-after 0] [-commit-interval 0]
//	         [-pprof-listen localhost:6060]
//	         [-timeline tl/] [-timeline-segment 4096] [-timeline-checkpoint 1]
//	         [-timeline-seal 5s]
//	         [-rules-dir rules/] [-rules-reload 5s] [-rescan-backlog 0]
//	         [-replica-listen :8418] [-replica-of host:8418] [-replica-id r1]
//
// With -rules-dir the daemon keeps its ruleset in a versioned registry: rule
// publications appended to the registry journal (POST /v1/ruleset, or
// waybackctl rules publish) hot-swap the compiled matcher between batches
// without dropping a session, per-session digests are persisted alongside the
// events, and a background rescan worker re-attributes already-ingested
// history under the earliest-published match whenever a publication demands
// it. -rescan-backlog bounds how many pending digests healthz tolerates
// before degrading to 503.
//
// With -timeline the daemon runs a time-travel engine over the store: a
// background sealer cuts committed events into immutable time-partitioned
// segments and snapshot checkpoints, and the HTTP API grows ?asof=DATE on the
// table/figure/lifecycle endpoints plus /v1/diff and /v1/skill. On drain the
// pending tail is sealed, so a restarted daemon answers as-of queries without
// replaying the log.
//
// With -fleet-listen the daemon is also (or, without -watch, purely) a fleet
// coordinator: waybacksensor nodes connect over the fleet wire protocol and
// their batches are ingested exactly once — per-sensor high watermarks
// persisted alongside the store drop redelivered batches idempotently — with
// per-sensor liveness on GET /v1/fleet. With -stale-after the /healthz
// endpoint degrades to 503 once the store has received nothing for that
// long, so a load balancer ejects a stalled coordinator.
//
// Fleet batches are made durable by a group-commit pipeline: appends from all
// sensors run concurrently, and a single committer coalesces everything
// pending into one fsync before any ack leaves. -commit-interval bounds how
// long the committer gathers; the zero default is adaptive — each commit
// absorbs whatever queued while the previous fsync ran, so the group size
// tracks the device's own latency. Set it above zero only to trade ack
// latency for larger groups on stores where fsync is cheap but frequent.
// -pprof-listen exposes net/http/pprof on its own address (never on -addr),
// for profiling a live coordinator.
//
// With -replica-listen the daemon also serves its committed event log to
// read replicas. A second waybackd started with -replica-of (and nothing
// else to ingest) tails that feed into its own store and serves the full
// read API from it: every analysis endpoint answers byte-for-byte what the
// coordinator answers at the same replication cut, replication lag is on
// /metrics, and /healthz degrades on lost coordinator contact (staleness
// from the feed's heartbeat, not local appends) or terminal divergence. A
// restarted replica resumes from its own committed cut — only the delta is
// re-shipped, never the full log.
//
// Shutdown (SIGINT/SIGTERM) drains: every byte already captured flows
// through to the store before the process exits, so a restart resumes with
// nothing lost but traffic recorded after the signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/tcpasm"
	"repro/internal/timeline"
	"repro/wayback"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waybackd:", err)
		os.Exit(1)
	}
}

// daemon holds the wired components; split from run so tests can drive the
// exact production wiring in-process.
type daemon struct {
	study    *wayback.Study
	store    *eventstore.Store
	pipeline *ingest.Pipeline   // nil in coordinator-only mode
	fleet    *fleet.Listener    // nil without -fleet-listen
	timeline *timeline.Engine   // nil without -timeline
	registry *registry.Registry // nil without -rules-dir
	replica  *replica.Replica   // nil without -replica-of
	feed     *replica.Feed      // nil without -replica-listen
	server   *serve.Server

	sealStop chan struct{}
	sealDone chan struct{}
	sealOnce sync.Once

	rulesStop chan struct{}
	rulesDone chan struct{}
	rulesOnce sync.Once
}

type daemonConfig struct {
	watchDir    string // empty = no local tail (fleet-only coordinator)
	storeDir    string
	prefix      string
	seed        int64
	timelines   string
	poll        time.Duration
	flushIdle   time.Duration
	batch       int
	workers     int
	reasmShards int // flow-sharded reassembly width; 0 = default
	// overlapPolicy selects how reassembly resolves conflicting overlapping
	// retransmits; conflicting sessions are flagged ambiguous either way.
	overlapPolicy tcpasm.OverlapPolicy
	fleetListen   string        // empty = fleet listener off
	staleAfter    time.Duration // zero = healthz never degrades
	// commitInterval is how long the fleet committer gathers appended
	// batches before one coalesced fsync; zero lets the fsync itself pace
	// grouping (adaptive group commit).
	commitInterval time.Duration
	// timelineDir, when set, enables the time-travel engine: sealed segments
	// and checkpoints live there, and the API grows as-of queries.
	timelineDir  string
	tlSegment    int           // events per sealed segment; 0 = engine default
	tlCheckpoint int           // checkpoint every N segments; negative = never
	tlSeal       time.Duration // sealer poll interval; 0 = 5s
	// rulesDir, when set, enables the versioned ruleset registry: the
	// publication journal, session digests, and the compiled-automaton cache
	// live there, the matcher hot-reloads between batches, and the HTTP API
	// grows /v1/ruleset.
	rulesDir      string
	rulesReload   time.Duration // journal poll + rescan worker interval; 0 = 5s
	rescanBacklog int           // healthz degrades past this many pending digests
	// replicaOf, when set, runs the daemon as a read replica: no local
	// capture, no fleet, no ruleset registry — the store tails the named
	// coordinator's replication feed and the HTTP API serves from it.
	replicaOf string
	replicaID string // replica identity at the feed; default hostname
	// replicaListen, when set, serves this store's committed log to read
	// replicas.
	replicaListen string
}

func openDaemon(cfg daemonConfig) (*daemon, error) {
	switch cfg.timelines {
	case "pipeline", "appendix":
	default:
		return nil, fmt.Errorf("-timelines must be pipeline or appendix, got %q", cfg.timelines)
	}
	study, err := wayback.NewStudy(wayback.Config{
		Seed:              cfg.seed,
		PipelineTimelines: cfg.timelines == "pipeline",
	})
	if err != nil {
		return nil, err
	}
	if cfg.replicaOf != "" {
		if cfg.watchDir != "" || cfg.fleetListen != "" || cfg.rulesDir != "" || cfg.replicaListen != "" {
			return nil, errors.New("-replica-of is exclusive with -watch, -fleet-listen, -rules-dir, and -replica-listen: a read replica only tails its coordinator")
		}
	} else if cfg.watchDir == "" && cfg.fleetListen == "" {
		return nil, errors.New("need -watch, -fleet-listen, or -replica-of")
	}
	store, err := wayback.OpenStore(cfg.storeDir)
	if err != nil {
		return nil, err
	}
	var reg *registry.Registry
	if cfg.rulesDir != "" {
		reg, err = registry.Open(registry.Config{
			Dir:    cfg.rulesDir,
			Base:   study.DatedRuleset(),
			Engine: study.EngineConfig(),
		})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	var pipeline *ingest.Pipeline
	if cfg.watchDir != "" {
		icfg := ingest.Config{
			Dir:           cfg.watchDir,
			Prefix:        cfg.prefix,
			Engine:        study.Engine(),
			Store:         store,
			PollInterval:  cfg.poll,
			FlushIdle:     cfg.flushIdle,
			BatchSessions: cfg.batch,
			MatchWorkers:  cfg.workers,
			DecodeShards:  cfg.reasmShards,
			Assembler:     tcpasm.Config{OverlapPolicy: cfg.overlapPolicy},
		}
		if reg != nil {
			// Hot reload: the pipeline consults the registry's live engine
			// pointer between batches, and records per-session digests so a
			// later publication can re-attribute history.
			icfg.EngineSource = reg.Engine
			icfg.Digests = reg
		}
		pipeline, err = ingest.Start(icfg)
		if err != nil {
			if reg != nil {
				reg.Close()
			}
			store.Close()
			return nil, err
		}
	}
	var fl *fleet.Listener
	if cfg.fleetListen != "" {
		fl, err = fleet.Listen(fleet.ListenerConfig{
			Addr:           cfg.fleetListen,
			Sink:           store,
			Dir:            store.Dir(),
			CommitInterval: cfg.commitInterval,
		})
		if err != nil {
			if pipeline != nil {
				pipeline.Close()
			}
			if reg != nil {
				reg.Close()
			}
			store.Close()
			return nil, err
		}
	}
	var rep *replica.Replica
	if cfg.replicaOf != "" {
		id := cfg.replicaID
		if id == "" {
			if h, herr := os.Hostname(); herr == nil && h != "" {
				id = h
			} else {
				id = "replica"
			}
		}
		rep, err = replica.Start(replica.Config{Addr: cfg.replicaOf, Store: store, ID: id})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	var feed *replica.Feed
	if cfg.replicaListen != "" {
		feed, err = replica.ListenFeed(replica.FeedConfig{Addr: cfg.replicaListen, Store: store})
		if err != nil {
			if fl != nil {
				fl.Close()
			}
			if pipeline != nil {
				pipeline.Close()
			}
			if reg != nil {
				reg.Close()
			}
			store.Close()
			return nil, err
		}
	}
	cleanup := func() {
		if feed != nil {
			feed.Close()
		}
		if rep != nil {
			rep.Close()
		}
		if fl != nil {
			fl.Close()
		}
		if pipeline != nil {
			pipeline.Close()
		}
		if reg != nil {
			reg.Close()
		}
		store.Close()
	}
	var tl *timeline.Engine
	if cfg.timelineDir != "" {
		tl, err = study.OpenTimeline(cfg.timelineDir, store, timeline.Config{
			SegmentEvents:   cfg.tlSegment,
			CheckpointEvery: cfg.tlCheckpoint,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
	}
	srvCfg := serve.Config{
		Study: study, Store: store, Ingest: pipeline,
		Timeline:         tl,
		StaleAfter:       cfg.staleAfter,
		Registry:         reg,
		RescanBacklogMax: cfg.rescanBacklog,
	}
	if fl != nil {
		srvCfg.Fleet = fl
	}
	if rep != nil {
		srvCfg.Replica = rep
	}
	if feed != nil {
		srvCfg.ReplicaFeed = feed
	}
	server, err := serve.New(srvCfg)
	if err != nil {
		cleanup()
		return nil, err
	}
	d := &daemon{study: study, store: store, pipeline: pipeline, fleet: fl, timeline: tl, registry: reg, replica: rep, feed: feed, server: server}
	if tl != nil {
		interval := cfg.tlSeal
		if interval <= 0 {
			interval = 5 * time.Second
		}
		d.sealStop = make(chan struct{})
		d.sealDone = make(chan struct{})
		go func() {
			defer close(d.sealDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-d.sealStop:
					return
				case <-t.C:
					if _, err := tl.Tick(); err != nil {
						fmt.Fprintln(os.Stderr, "waybackd: timeline:", err)
					}
				}
			}
		}()
	}
	if reg != nil {
		interval := cfg.rulesReload
		if interval <= 0 {
			interval = 5 * time.Second
		}
		d.rulesStop = make(chan struct{})
		d.rulesDone = make(chan struct{})
		go func() {
			defer close(d.rulesDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-d.rulesStop:
					return
				case <-t.C:
					// Pick up publications journaled by another process
					// (waybackctl -dir against the same registry directory);
					// in-process publishes over HTTP are already live.
					if _, err := reg.Refresh(); err != nil {
						fmt.Fprintln(os.Stderr, "waybackd: ruleset:", err)
						continue
					}
					// Rescan worker: any publication — local or remote — that
					// left a pending marker gets its retroactive
					// re-attribution here, off the ingest path.
					if reg.RescanNeeded() {
						stats, err := reg.Rescan(store)
						if err != nil {
							fmt.Fprintln(os.Stderr, "waybackd: rescan:", err)
							continue
						}
						fmt.Printf("waybackd: rescan gen %d: %d digests, %d sessions re-attributed\n",
							reg.Generation(), stats.Digests, stats.Amended)
					}
				}
			}
		}()
	}
	return d, nil
}

// stopRules halts the ruleset reload poller and rescan worker. Idempotent;
// a daemon without a registry makes it a no-op.
func (d *daemon) stopRules() {
	d.rulesOnce.Do(func() {
		if d.rulesStop == nil {
			return
		}
		close(d.rulesStop)
		<-d.rulesDone
	})
}

// stopTimeline halts the background sealer and seals the committed tail into
// a final segment, so a restart can answer as-of queries from segments alone.
// Idempotent; a nil engine makes it a no-op.
func (d *daemon) stopTimeline() error {
	var err error
	d.sealOnce.Do(func() {
		if d.timeline == nil {
			return
		}
		close(d.sealStop)
		<-d.sealDone
		_, err = d.timeline.Seal()
	})
	return err
}

// close drains and shuts down in dependency order: stop ingesting (which
// consumes everything already on disk), stop accepting fleet batches (each
// applied batch has its watermark recorded first), then close the store.
func (d *daemon) close() error {
	var err error
	d.stopRules()
	if d.pipeline != nil {
		err = d.pipeline.Close()
	}
	if d.fleet != nil {
		if ferr := d.fleet.Close(); err == nil {
			err = ferr
		}
	}
	if d.feed != nil {
		if ferr := d.feed.Close(); err == nil {
			err = ferr
		}
	}
	if d.replica != nil {
		if rerr := d.replica.Close(); err == nil {
			err = rerr
		}
	}
	if terr := d.stopTimeline(); err == nil {
		err = terr
	}
	if d.registry != nil {
		if rerr := d.registry.Close(); err == nil {
			err = rerr
		}
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(args []string) error {
	fs := flag.NewFlagSet("waybackd", flag.ContinueOnError)
	watch := fs.String("watch", "", "directory of rotating pcap segments to tail (required)")
	storeDir := fs.String("store", "", "event store directory (required)")
	prefix := fs.String("prefix", "dscope", "segment filename prefix")
	addr := fs.String("addr", ":8416", "HTTP listen address")
	seed := fs.Int64("seed", 1, "analysis seed (KEV catalog, population model)")
	timelines := fs.String("timelines", "pipeline", "lifecycle source: pipeline (from ingested events) or appendix")
	poll := fs.Duration("poll", 100*time.Millisecond, "tail poll interval")
	flushIdle := fs.Duration("flush-idle", 2*time.Second, "flush open connections after this much capture silence")
	batch := fs.Int("batch", 256, "sessions per match batch")
	workers := fs.Int("workers", 0, "match workers (0 = GOMAXPROCS)")
	fs.IntVar(workers, "match-workers", 0, "alias of -workers")
	reasmShards := fs.Int("reasm-shards", 0, "flow-sharded reassembly width (0 = min(8, GOMAXPROCS))")
	overlapFlag := fs.String("overlap-policy", "first-wins", "reassembly policy for conflicting overlapping retransmits (first-wins | last-wins); conflicting sessions are flagged ambiguous either way")
	fleetListen := fs.String("fleet-listen", "", "accept fleet sensors on this address (\":8417\"); empty = off")
	staleAfter := fs.Duration("stale-after", 0, "healthz answers 503 after this long without new events; 0 = never")
	commitInterval := fs.Duration("commit-interval", 0, "fleet group-commit gather window; 0 = adaptive (fsync-paced)")
	pprofListen := fs.String("pprof-listen", "", "serve net/http/pprof on this address (\"localhost:6060\"); empty = off")
	timelineDir := fs.String("timeline", "", "time-travel engine directory (segments + checkpoints); empty = off")
	tlSegment := fs.Int("timeline-segment", 0, "events per sealed segment (0 = engine default)")
	tlCheckpoint := fs.Int("timeline-checkpoint", 1, "checkpoint every N sealed segments (negative = never)")
	tlSeal := fs.Duration("timeline-seal", 5*time.Second, "background sealer poll interval")
	rulesDir := fs.String("rules-dir", "", "versioned ruleset registry directory (journal, digests, automaton cache); empty = off")
	rulesReload := fs.Duration("rules-reload", 5*time.Second, "ruleset journal poll + rescan worker interval")
	rescanBacklog := fs.Int("rescan-backlog", 0, "healthz degrades past this many pending rescan digests (0 = 65536, negative = never)")
	replicaOf := fs.String("replica-of", "", "run as a read replica tailing this coordinator's -replica-listen address; exclusive with -watch/-fleet-listen/-rules-dir")
	replicaID := fs.String("replica-id", "", "replica identity reported to the coordinator (default: hostname)")
	replicaListen := fs.String("replica-listen", "", "serve the committed log to read replicas on this address (\":8418\"); empty = off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return errors.New("-store is required")
	}
	if *watch == "" && *fleetListen == "" && *replicaOf == "" {
		return errors.New("need -watch (local capture), -fleet-listen (coordinator), or -replica-of (read replica)")
	}
	overlap, err := tcpasm.ParseOverlapPolicy(*overlapFlag)
	if err != nil {
		return err
	}

	d, err := openDaemon(daemonConfig{
		watchDir: *watch, storeDir: *storeDir, prefix: *prefix,
		seed: *seed, timelines: *timelines,
		poll: *poll, flushIdle: *flushIdle, batch: *batch, workers: *workers,
		reasmShards: *reasmShards, overlapPolicy: overlap,
		fleetListen: *fleetListen, staleAfter: *staleAfter,
		commitInterval: *commitInterval,
		timelineDir:    *timelineDir,
		tlSegment:      *tlSegment, tlCheckpoint: *tlCheckpoint, tlSeal: *tlSeal,
		rulesDir: *rulesDir, rulesReload: *rulesReload, rescanBacklog: *rescanBacklog,
		replicaOf: *replicaOf, replicaID: *replicaID, replicaListen: *replicaListen,
	})
	if err != nil {
		return err
	}

	if *pprofListen != "" {
		// pprof stays off the public handler: an explicit mux on its own
		// listener, so profiling exposure is an operator decision.
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofListen, Handler: pprofMux}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "waybackd: pprof:", err)
			}
		}()
		defer pprofSrv.Close()
		fmt.Printf("waybackd: pprof on %s\n", *pprofListen)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: d.server.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	switch {
	case *replicaOf != "":
		fmt.Printf("waybackd: read replica of %s, store %s, listening on %s\n",
			*replicaOf, *storeDir, *addr)
	case *watch != "" && *fleetListen != "":
		fmt.Printf("waybackd: tailing %s, fleet on %s, store %s, listening on %s\n",
			*watch, *fleetListen, *storeDir, *addr)
	case *fleetListen != "":
		fmt.Printf("waybackd: fleet coordinator on %s, store %s, listening on %s\n",
			*fleetListen, *storeDir, *addr)
	default:
		fmt.Printf("waybackd: tailing %s (prefix %s), store %s, listening on %s\n",
			*watch, *prefix, *storeDir, *addr)
	}
	if *replicaListen != "" {
		fmt.Printf("waybackd: replication feed on %s\n", *replicaListen)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		d.close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("waybackd: draining")
	// Drain order: finish ingesting what is on disk, stop accepting fleet
	// batches (every applied batch gets its watermark recorded, so sensors
	// redeliver only what was never applied), then stop answering queries
	// (the last answers see the fully drained store), then close.
	var drainErr error
	d.stopRules()
	if d.pipeline != nil {
		drainErr = d.pipeline.Close()
	}
	if d.fleet != nil {
		if err := d.fleet.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if d.feed != nil {
		if err := d.feed.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if d.replica != nil {
		if err := d.replica.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	// Seal the committed tail so the next start answers as-of queries from
	// durable segments instead of replaying the store.
	if err := d.stopTimeline(); err != nil && drainErr == nil {
		drainErr = err
	}
	if d.registry != nil {
		if err := d.registry.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := d.store.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	switch {
	case d.pipeline != nil:
		m := d.pipeline.Metrics()
		fmt.Printf("waybackd: drained (%d packets, %d sessions, %d events, %d segments)\n",
			m.Packets, m.Sessions, m.Events, m.SegmentsDone)
	case d.fleet != nil:
		batches, events, dups := d.fleet.Totals()
		fmt.Printf("waybackd: drained (%d fleet batches, %d events, %d duplicates dropped)\n",
			batches, events, dups)
	case d.replica != nil:
		st := d.replica.Status()
		fmt.Printf("waybackd: drained (replica applied %d events, %d amendments, lag %d)\n",
			st.EventsApplied, st.AmendsApplied, st.LagEvents)
	}
	return drainErr
}
