// Package serve is waybackd's query layer: an HTTP API that computes the
// paper's tables and figures from the live event store and its timeline
// instead of a one-shot batch run.
//
// Every analysis endpoint is generation-cached: the event store bumps a
// generation exactly when new events land, so a response body computed at
// generation g is valid until the store moves past g. Between ingest batches
// — the common case for a telescope, where most polls find nothing new —
// every request is a cache hit and costs a map lookup, not a study
// evaluation.
//
// Endpoints:
//
//	GET /healthz                 liveness + staleness (503 once the store has
//	                             received nothing past Config.StaleAfter)
//	GET /metrics                 ingest + store + fleet + cache metrics (Prometheus text)
//	GET /v1/events               attributed events, read from the timeline
//	                             (filters: cve, since, until, limit)
//	GET /v1/fleet                per-sensor liveness, watermarks, and lag
//	GET /v1/lifecycles/{cve}     one CVE's lifecycle events
//	GET /v1/tables/{n}           paper table n (1-6, E) as rendered text
//	GET /v1/figures/{id}         paper figure id (1-18) as CSV
//	GET /v1/diff                 lifecycle diff between two as-of cuts (from, to)
//	GET /v1/skill                coordination-skill score over time (from, to, step_days)
//	GET /v1/ruleset              ruleset generation, rule count, rescan progress
//	                             (?full=1 appends the dated ruleset text)
//	POST /v1/ruleset             publish a ruleset delta (body: dated ruleset text);
//	                             swaps the live engine and queues re-attribution
//	POST /v1/ruleset/rescan      run the queued rescan now; responds with its stats
//
// The event, lifecycle, table, and figure endpoints accept ?asof=DATE
// (RFC 3339 or 2006-01-02) and answer from the event log as it stood at that
// instant — a time-travel query on the timeline engine (Config.Timeline)
// whose cost is the events since the nearest checkpoint, not a full replay.
// /v1/events reads a timeline view with or without ?asof=: sealed segments
// plus the store's unsealed tail, under the amendments that apply.
//
// Responses other than /healthz, /metrics and the fleet and ruleset
// endpoints carry a strong ETag keyed on (store generation, as-of date,
// endpoint and query); If-None-Match answers 304 with an empty body, so
// pollers pay nothing while the store is quiet.
//
// When the store does move, the first read of each body is served by
// wayback.Incremental, which folds only the newly appended events into the
// running aggregates (O(new) per generation bump; amendments force a loud,
// metered rebuild — see waybackd_results_rebuilds_total). Concurrent misses
// for the same body are coalesced: one request computes, the rest wait and
// share the bytes. Cache eviction is staged — stale-generation entries go
// first, and only then the least-recently-used half of the current
// generation, so a hot working set survives a busy poller.
//
// /metrics additionally exposes per-endpoint latency histograms
// (waybackd_http_request_seconds{path,code}) — the serving-side view of the
// same quantiles cmd/waybackload measures from outside — and, when the
// daemon is a replica or a replication feed (Config.Replica /
// Config.ReplicaFeed), the replication lag gauges. A replica's /healthz
// degrades on replication staleness and answers 503 "diverged" if its
// store and the coordinator's have split histories.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/ingest"
	"repro/internal/lifecycle"
	"repro/internal/registry"
	"repro/internal/replica"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/wayback"
)

// Config wires a Server.
type Config struct {
	// Study supplies the analysis configuration (timeline mode, seed for the
	// KEV catalog). Required.
	Study *wayback.Study
	// Store is the event store the analyses read. Required.
	Store *eventstore.Store
	// Ingest, when set, contributes pipeline metrics to /metrics.
	Ingest *ingest.Pipeline
	// Fleet, when set, backs GET /v1/fleet and per-sensor /metrics gauges.
	Fleet FleetSource
	// Timeline is the time-travel engine over Store. Required: /v1/events
	// reads it, and so do ?asof= on the analysis endpoints, /v1/diff,
	// /v1/skill, and the timeline /metrics gauges.
	Timeline *timeline.Engine
	// StaleAfter, when positive, makes /healthz answer 503 once the store
	// has received nothing for this long (measured from the later of server
	// start and the last append) — the signal a load balancer needs to
	// eject a coordinator whose ingest has stalled.
	StaleAfter time.Duration
	// Registry, when set, enables the ruleset lifecycle endpoints
	// (GET/POST /v1/ruleset, POST /v1/ruleset/rescan) and the
	// waybackd_ruleset_* /metrics gauges.
	Registry *registry.Registry
	// RescanBacklogMax makes /healthz answer 503 ("degraded") while the
	// registry's rescan backlog — digests awaiting re-attribution after a
	// publish — exceeds this many sessions: answers computed meanwhile may
	// still carry superseded labels. 0 means 65536; negative disables the
	// check.
	RescanBacklogMax int
	// Replica, when set, marks this server as a read replica: /metrics grows
	// replication gauges and /healthz measures staleness from coordinator
	// contact (not local appends) and answers 503 on a terminal replication
	// error (divergence).
	Replica ReplicaSource
	// ReplicaFeed, when set, contributes per-replica shipping gauges to
	// /metrics on a coordinator serving read replicas.
	ReplicaFeed ReplicaFeedSource
}

// ReplicaSource is the replica-side state the server reads (*replica.Replica).
type ReplicaSource interface {
	Status() replica.Status
}

// ReplicaFeedSource is the coordinator-side replication state the server
// reads (*replica.Feed).
type ReplicaFeedSource interface {
	Replicas() []replica.FeedStatus
}

// FleetSource is the slice of *fleet.Listener the server reads.
type FleetSource interface {
	Sensors() []fleet.SensorStatus
	Totals() (batches, events, dups uint64)
}

// Server computes API responses from store snapshots.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// Results maintained as deltas over the store: a generation bump folds
	// only the new events (see wayback.Incremental).
	inc *wayback.Incremental

	// As-of Results, keyed by (generation, as-of instant): bounded, and reset
	// whenever the generation moves. asofFlights holds the replays in
	// progress, which concurrent misses at the same key wait on. asofMu
	// guards all three fields and is never held across a replay.
	asofMu      sync.Mutex
	asofGen     uint64
	asofRes     map[int64]*wayback.Results
	asofFlights map[asofKey]*flight[*wayback.Results]

	// figure2 is Figure 2's CSV body, rendered on first use: the figure
	// reads no event, so one body serves every generation and as-of instant.
	figure2 func() ([]byte, error)

	// Rendered response bodies, keyed by endpoint + generation (+ as-of),
	// plus the in-flight builds concurrent misses coalesce onto. cacheMu
	// guards cache, flights, and cacheTick.
	cacheMu   sync.Mutex
	cache     map[string]cacheEntry
	flights   map[string]*flight[renderedBody]
	cacheTick uint64
	hits      atomic.Uint64
	misses    atomic.Uint64

	// http records per-endpoint latency histograms for /metrics.
	http httpStats
}

type cacheEntry struct {
	gen      uint64
	body     []byte
	ctype    string
	lastUsed uint64 // cacheTick at last hit or insert, for LRU eviction
}

// flight is one in-progress build — a response body or an as-of Results;
// concurrent misses on the same key wait on done instead of building again.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// renderedBody is what a response-body flight builds.
type renderedBody struct {
	body  []byte
	ctype string
}

// maxCacheEntries bounds the response cache: ?asof= makes the key space
// unbounded. At the cap, stale-generation entries are evicted first; if
// current-generation bodies alone fill the cache, the least-recently-used
// half goes — hot current bodies are never dropped wholesale.
const maxCacheEntries = 1024

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Study == nil || cfg.Store == nil || cfg.Timeline == nil {
		return nil, fmt.Errorf("serve: Config needs Study, Store and Timeline")
	}
	s := &Server{
		cfg: cfg, mux: http.NewServeMux(), start: time.Now(),
		inc:         cfg.Study.NewIncremental(cfg.Store),
		cache:       make(map[string]cacheEntry),
		flights:     make(map[string]*flight[renderedBody]),
		asofFlights: make(map[asofKey]*flight[*wayback.Results]),
		figure2: sync.OnceValues(func() ([]byte, error) {
			body, _, err := seriesCSV(cfg.Study.Figure2()...)
			return body, err
		}),
	}
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	handle("GET /v1/events", "/v1/events", s.handleEvents)
	handle("GET /v1/fleet", "/v1/fleet", s.handleFleet)
	handle("GET /v1/lifecycles/{cve}", "/v1/lifecycles/{cve}", s.handleLifecycle)
	handle("GET /v1/tables/{n}", "/v1/tables/{n}", s.handleTable)
	handle("GET /v1/figures/{id}", "/v1/figures/{id}", s.handleFigure)
	handle("GET /v1/diff", "/v1/diff", s.handleDiff)
	handle("GET /v1/skill", "/v1/skill", s.handleSkill)
	handle("GET /v1/ruleset", "/v1/ruleset", s.handleRulesetGet)
	handle("POST /v1/ruleset", "/v1/ruleset", s.handleRulesetPublish)
	handle("POST /v1/ruleset/rescan", "/v1/ruleset/rescan", s.handleRulesetRescan)
	return s, nil
}

// Handler returns the routable HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Limits on every HTTP server the binaries start. There is deliberately no
// write timeout: a cache-missing as-of or diff replay may take longer than
// any fixed bound to answer, and pprof's CPU profile holds its response open
// for the whole sampling window.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so slow-drip connections cannot pile up.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections idle this long.
	idleTimeout = 2 * time.Minute
	// maxHeaderBytes caps request headers; the API takes short GETs and
	// small POSTs.
	maxHeaderBytes = 64 << 10
)

// NewHTTPServer returns a server for h on addr with the limits above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// CacheStats reports response-cache hits and misses since start. A miss is a
// request that built a body; requests coalesced onto another request's build
// count as hits (they got a body without paying for one).
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// results returns the Results for the store's current snapshot. The
// incremental view folds only the events appended since the last call, so a
// generation bump costs O(new events); amendments trigger its metered
// fallback rebuild (see wayback.Incremental). It fails when history the
// store released cannot be read back from its logs.
func (s *Server) results() (*wayback.Results, uint64, error) {
	return s.inc.Results()
}

// cachedBody returns the response body for key at generation gen, building it
// at most once however many requests miss concurrently: the first miss runs
// build, the rest wait for its result. hit reports whether this request
// avoided building (cache hit or coalesced onto another build).
func (s *Server) cachedBody(gen uint64, key string, build func() ([]byte, string, error)) (body []byte, ctype string, hit bool, err error) {
	fkey := strconv.FormatUint(gen, 10) + "/" + key
	s.cacheMu.Lock()
	if e, ok := s.cache[key]; ok && e.gen == gen {
		s.cacheTick++
		e.lastUsed = s.cacheTick
		s.cache[key] = e
		s.cacheMu.Unlock()
		return e.body, e.ctype, true, nil
	}
	if f, ok := s.flights[fkey]; ok {
		s.cacheMu.Unlock()
		<-f.done
		return f.val.body, f.val.ctype, true, f.err
	}
	f := &flight[renderedBody]{done: make(chan struct{})}
	s.flights[fkey] = f
	s.cacheMu.Unlock()

	f.val.body, f.val.ctype, f.err = build()
	close(f.done)

	s.cacheMu.Lock()
	delete(s.flights, fkey)
	if f.err == nil {
		s.storeCacheEntry(key, cacheEntry{gen: gen, body: f.val.body, ctype: f.val.ctype})
	}
	s.cacheMu.Unlock()
	return f.val.body, f.val.ctype, false, f.err
}

// storeCacheEntry inserts a body under the size cap. Eviction at the cap is
// staged: stale-generation entries go first (they can never hit again); if
// the cache is still full — every entry current, an ?asof= key flood — the
// least-recently-used half goes, keeping the hot current-generation bodies.
// Callers hold cacheMu.
func (s *Server) storeCacheEntry(key string, e cacheEntry) {
	if len(s.cache) >= maxCacheEntries {
		for k, old := range s.cache {
			if old.gen != e.gen {
				delete(s.cache, k)
			}
		}
	}
	if len(s.cache) >= maxCacheEntries {
		type keyUse struct {
			key  string
			used uint64
		}
		all := make([]keyUse, 0, len(s.cache))
		for k, old := range s.cache {
			all = append(all, keyUse{k, old.lastUsed})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].used < all[j].used })
		for _, x := range all[:len(all)/2] {
			delete(s.cache, x.key)
		}
	}
	s.cacheTick++
	e.lastUsed = s.cacheTick
	s.cache[key] = e
}

// serveCached answers from the response cache when the store generation (and
// the as-of date, for time-travel requests) has not moved since the body was
// built. Responses carry a strong ETag derived from (generation, as-of,
// endpoint); a matching If-None-Match short-circuits to 304 before any
// analysis runs.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, build func(res *wayback.Results) ([]byte, string, error)) {
	asof, err := parseDateParam(r.URL.Query().Get("asof"))
	if err != nil {
		http.Error(w, "bad asof: "+err.Error(), http.StatusBadRequest)
		return
	}
	var (
		res *wayback.Results
		gen uint64
	)
	if asof.IsZero() {
		if res, gen, err = s.results(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		key += "?asof=" + asof.UTC().Format(time.RFC3339Nano)
		res, gen, err = s.asofResults(asof)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	etag := responseETag(gen, key)
	if notModified(r, etag) {
		s.hits.Add(1)
		writeNotModified(w, gen, etag)
		return
	}
	body, ctype, hit, err := s.cachedBody(gen, key, func() ([]byte, string, error) {
		return build(res)
	})
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	if err != nil {
		var nf errNotFound
		if errors.As(err, &nf) {
			http.Error(w, nf.msg, http.StatusNotFound)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.write(w, gen, etag, body, ctype)
}

// responseETag is the strong validator for a cached analysis body: exact for
// a given (store generation, endpoint, as-of date) triple, all of which are
// already folded into key by serveCached.
func responseETag(gen uint64, key string) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%d/%s", gen, key))
}

// notModified reports whether the request's If-None-Match matches etag.
// Weak-comparison: a W/ prefix on the client's validator is ignored, which is
// safe here because a matching tag always denotes the identical body.
func notModified(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, v := range strings.Split(inm, ",") {
		v = strings.TrimPrefix(strings.TrimSpace(v), "W/")
		if v == "*" || v == etag {
			return true
		}
	}
	return false
}

// writeNotModified answers a request whose If-None-Match named etag.
func writeNotModified(w http.ResponseWriter, gen uint64, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Store-Generation", strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusNotModified)
}

func (s *Server) write(w http.ResponseWriter, gen uint64, etag string, body []byte, ctype string) {
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("X-Store-Generation", strconv.FormatUint(gen, 10))
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.Write(body)
}

// handleHealthz reports liveness plus the lag a load balancer should act on.
// The first line is "ok" or "stale"; subsequent lines carry ingest and fleet
// backlog. With StaleAfter configured, a store that has received nothing for
// that long (counting from server start for an empty store) answers 503 so
// the balancer ejects this coordinator.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var ingestLag int64
	if p := s.cfg.Ingest; p != nil {
		ingestLag = p.Metrics().Lag()
	}
	var fleetLag int64
	if f := s.cfg.Fleet; f != nil {
		for _, sensor := range f.Sensors() {
			fleetLag += int64(sensor.SpooledBatches) + sensor.IngestLag
		}
	}
	// On a read replica, staleness means lost coordinator contact, not a
	// quiet local store: the store only moves when replication ships
	// something, and a healthy-but-idle coordinator still heartbeats. A
	// terminal replication error (divergence, shard mismatch) makes the node
	// unhealthy regardless of age.
	var rep *replica.Status
	if s.cfg.Replica != nil {
		st := s.cfg.Replica.Status()
		rep = &st
	}
	last := s.cfg.Store.LastAppend()
	if rep != nil {
		last = rep.LastContact
	}
	if last.IsZero() || last.Before(s.start) {
		last = s.start
	}
	age := time.Since(last)
	stale := s.cfg.StaleAfter > 0 && age > s.cfg.StaleAfter

	// A rescan backlog past the threshold degrades the node: the store is
	// healthy, but answers may still carry labels a publish has superseded.
	var rescanBacklog int64
	degraded := false
	if reg := s.cfg.Registry; reg != nil && s.cfg.RescanBacklogMax >= 0 {
		limit := s.cfg.RescanBacklogMax
		if limit == 0 {
			limit = defaultRescanBacklogMax
		}
		rescanBacklog = reg.RescanPending()
		degraded = rescanBacklog > int64(limit)
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case rep != nil && rep.Err != "":
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "diverged")
	case stale:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "stale")
	case degraded:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
	default:
		fmt.Fprintln(w, "ok")
	}
	fmt.Fprintf(w, "ingest_lag %d\n", ingestLag)
	fmt.Fprintf(w, "fleet_lag %d\n", fleetLag)
	fmt.Fprintf(w, "store_age_seconds %.3f\n", age.Seconds())
	if s.cfg.Registry != nil {
		fmt.Fprintf(w, "rescan_backlog %d\n", rescanBacklog)
	}
	if rep != nil {
		connected := 0
		if rep.Connected {
			connected = 1
		}
		fmt.Fprintf(w, "replica_connected %d\n", connected)
		fmt.Fprintf(w, "replica_lag_events %d\n", rep.LagEvents)
		if rep.Err != "" {
			fmt.Fprintf(w, "replica_error %s\n", rep.Err)
		}
	}
}

// defaultRescanBacklogMax is the rescan backlog above which /healthz
// degrades when Config.RescanBacklogMax is zero.
const defaultRescanBacklogMax = 65536

// handleFleet serves per-sensor liveness and progress. Never cached: the
// gauges (connectedness, lag, heartbeat age) move without the store
// generation changing.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		http.Error(w, "fleet listener not enabled", http.StatusNotFound)
		return
	}
	sensors := s.cfg.Fleet.Sensors()
	batches, events, dups := s.cfg.Fleet.Totals()
	out := struct {
		Sensors    []fleet.SensorStatus `json:"sensors"`
		Batches    uint64               `json:"batches"`
		Events     uint64               `json:"events"`
		DupBatches uint64               `json:"dup_batches"`
	}{Sensors: sensors, Batches: batches, Events: events, DupBatches: dups}
	if out.Sensors == nil {
		out.Sensors = []fleet.SensorStatus{}
	}
	body, err := json.Marshal(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleMetrics emits Prometheus text exposition. Never cached: gauges move
// without the store generation changing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	g := func(name string, v any) { fmt.Fprintf(&b, "waybackd_%s %v\n", name, v) }
	g("store_events", s.cfg.Store.Len())
	g("store_resident_events", s.cfg.Store.Resident())
	g("store_bytes", s.cfg.Store.SizeBytes())
	g("store_generation", s.cfg.Store.Generation())
	for _, sh := range s.cfg.Store.ShardStats() {
		label := fmt.Sprintf("{shard=\"%d\"}", sh.Shard)
		g("store_shard_records"+label, sh.Records)
		g("store_shard_bytes"+label, sh.SizeBytes)
		var lastUnix int64
		if !sh.LastAppend.IsZero() {
			lastUnix = sh.LastAppend.Unix()
		}
		g("store_shard_last_append_seconds"+label, lastUnix)
	}
	g("cache_hits", s.hits.Load())
	g("cache_misses", s.misses.Load())
	im := s.inc.Metrics()
	g("results_folds_total", im.Folds)
	g("results_folded_events_total", im.FoldedEvents)
	g("results_rebuilds_total", im.Rebuilds)
	if reg := s.cfg.Registry; reg != nil {
		g("ruleset_generation", reg.Generation())
		g("ruleset_rules", reg.NumRules())
		g("ruleset_rescan_pending", reg.RescanPending())
		g("ruleset_rescan_done", reg.RescanDone())
		g("ruleset_digests", reg.DigestCount())
		as := s.cfg.Store.AmendmentStats()
		g("store_amendment_records", as.Records)
		g("store_amended_sessions", as.Sessions)
	}
	tm := s.cfg.Timeline.Metrics()
	g("timeline_segments", tm.Segments)
	g("timeline_sealed_events", tm.SealedEvents)
	g("timeline_sealed_bytes", tm.SealedBytes)
	g("timeline_checkpoints", tm.Checkpoints)
	g("timeline_checkpoint_events", tm.CheckpointEvents)
	// -1 means "no checkpoint yet" — distinguishable from a fresh one.
	age := -1.0
	if !tm.CheckpointAt.IsZero() {
		age = time.Since(tm.CheckpointAt).Seconds()
	}
	g("timeline_checkpoint_age_seconds", age)
	if f := s.cfg.Fleet; f != nil {
		sensors := f.Sensors()
		batches, events, dups := f.Totals()
		g("fleet_sensors", len(sensors))
		g("fleet_batches", batches)
		g("fleet_events", events)
		g("fleet_dup_batches", dups)
		// Group-commit health, when the source exposes it (the concrete
		// *fleet.Listener does; the interface stays minimal for tests).
		if cs, ok := f.(interface{ CommitStats() fleet.CommitStats }); ok {
			st := cs.CommitStats()
			g("fleet_commits_total", st.Commits)
			g("fleet_commit_coalesced_batches_total", st.CoalescedBatches)
			g("fleet_commit_queue_depth", st.QueueDepth)
			g("fleet_commit_last_batches", st.LastBatches)
			g("fleet_commit_last_fsync_seconds", float64(st.LastFsyncNanos)/1e9)
		}
		for _, sensor := range sensors {
			label := fmt.Sprintf("{sensor=%q}", sensor.ID)
			connected := 0
			if sensor.Connected {
				connected = 1
			}
			g("fleet_sensor_connected"+label, connected)
			g("fleet_sensor_watermark"+label, sensor.Watermark)
			g("fleet_sensor_events"+label, sensor.Events)
			g("fleet_sensor_dup_batches"+label, sensor.DupBatches)
			g("fleet_sensor_spooled_batches"+label, sensor.SpooledBatches)
			g("fleet_sensor_ingest_lag"+label, sensor.IngestLag)
			g("fleet_sensor_last_seen_seconds"+label, sensor.LastSeen.Unix())
		}
	}
	if p := s.cfg.Ingest; p != nil {
		m := p.Metrics()
		g("ingest_packets", m.Packets)
		g("ingest_decode_errors", m.DecodeErrors)
		g("ingest_sessions", m.Sessions)
		g("ingest_events", m.Events)
		g("ingest_batches", m.Batches)
		g("ingest_segments_done", m.SegmentsDone)
		g("ingest_skipped_bytes", m.SkippedBytes)
		g("ingest_open_conns", m.OpenConns)
		g("ingest_pending_sessions", m.PendingSessions)
		g("ingest_queued_batches", m.QueuedBatches)
		g("ingest_pending_bytes", m.PendingBytes)
		g("ingest_lag", m.Lag())
		idle := 0
		if m.Idle() {
			idle = 1
		}
		g("ingest_idle", idle)
		g("ingest_batch_latency_seconds", m.LastBatchLatency.Seconds())
		// Explicit _total spelling for the sessions counter (the bare
		// ingest_sessions gauge name predates it and is kept for
		// compatibility).
		g("ingest_sessions_total", m.Sessions)
		g("ingest_ambiguous_sessions_total", m.AmbiguousSessions)
		for _, sh := range p.ShardStats() {
			label := fmt.Sprintf("{shard=\"%d\"}", sh.Shard)
			g("ingest_shard_open_conns"+label, sh.OpenConns)
			g("ingest_shard_queue_depth"+label, sh.Queued)
			g("ingest_shard_packets"+label, sh.Packets)
		}
	}
	if rs := s.cfg.Replica; rs != nil {
		st := rs.Status()
		connected := 0
		if st.Connected {
			connected = 1
		}
		g("replica_connected", connected)
		g("replica_lag_events", st.LagEvents)
		g("replica_lag_amendments", st.LagAmends)
		g("replica_rounds_total", st.Rounds)
		g("replica_events_applied_total", st.EventsApplied)
		g("replica_amendments_applied_total", st.AmendsApplied)
		g("replica_coordinator_events", st.CoordEvents)
		g("replica_local_events", st.LocalEvents)
		// -1 means "never heard from the coordinator".
		contact := -1.0
		if !st.LastContact.IsZero() {
			contact = time.Since(st.LastContact).Seconds()
		}
		g("replica_last_contact_seconds", contact)
		fatal := 0
		if st.Err != "" {
			fatal = 1
		}
		g("replica_fatal", fatal)
	}
	if ff := s.cfg.ReplicaFeed; ff != nil {
		replicas := ff.Replicas()
		g("replica_feed_replicas", len(replicas))
		for _, st := range replicas {
			label := fmt.Sprintf("{replica=%q}", st.ID)
			connected := 0
			if st.Connected {
				connected = 1
			}
			g("replica_feed_connected"+label, connected)
			g("replica_feed_events_sent_total"+label, st.EventsSent)
			g("replica_feed_amendments_sent_total"+label, st.AmendsSent)
			g("replica_feed_rounds_total"+label, st.Rounds)
			g("replica_feed_lag_events"+label, st.LagEvents)
			ack := -1.0
			if !st.LastAck.IsZero() {
				ack = time.Since(st.LastAck).Seconds()
			}
			g("replica_feed_last_ack_seconds"+label, ack)
		}
	}
	s.http.writeProm(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// rulesetJSON is the wire form of the registry's state.
type rulesetJSON struct {
	Generation      uint64 `json:"generation"`
	Rules           int    `json:"rules"`
	Digests         int64  `json:"digests"`
	RescanNeeded    bool   `json:"rescan_needed"`
	RescanPending   int64  `json:"rescan_pending"`
	RescanDone      int64  `json:"rescan_done"`
	AmendedSessions int    `json:"amended_sessions"`
	// Ruleset carries the dated ruleset text when ?full=1 is given.
	Ruleset string `json:"ruleset,omitempty"`
}

func (s *Server) rulesetState() rulesetJSON {
	reg := s.cfg.Registry
	return rulesetJSON{
		Generation:      reg.Generation(),
		Rules:           reg.NumRules(),
		Digests:         reg.DigestCount(),
		RescanNeeded:    reg.RescanNeeded(),
		RescanPending:   reg.RescanPending(),
		RescanDone:      reg.RescanDone(),
		AmendedSessions: s.cfg.Store.AmendmentStats().Sessions,
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleRulesetGet reports the registry's state: generation, rule count, and
// re-attribution progress. Never cached: rescan gauges move without the
// store generation changing.
func (s *Server) handleRulesetGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "ruleset registry not enabled", http.StatusNotFound)
		return
	}
	out := s.rulesetState()
	if v := r.URL.Query().Get("full"); v == "1" || v == "true" {
		var b bytes.Buffer
		if err := rules.WriteDatedRuleset(&b, s.cfg.Registry.Ruleset()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out.Ruleset = b.String()
	}
	s.writeJSON(w, out)
}

// handleRulesetPublish appends a ruleset delta (request body: dated ruleset
// text, a publication comment per rule) to the journal and swaps the live
// engine. The response reports the new generation; re-attribution of stored
// history is queued, not yet run — POST /v1/ruleset/rescan drives it.
func (s *Server) handleRulesetPublish(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "ruleset registry not enabled", http.StatusNotFound)
		return
	}
	delta, errs := rules.ParseDatedSet(r.Body)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, err := range errs {
			msgs = append(msgs, err.Error())
		}
		http.Error(w, "bad ruleset delta:\n"+strings.Join(msgs, "\n"), http.StatusBadRequest)
		return
	}
	if len(delta) == 0 {
		http.Error(w, "empty ruleset delta", http.StatusBadRequest)
		return
	}
	if _, err := s.cfg.Registry.Publish(delta); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeJSON(w, s.rulesetState())
}

// rescanStatsJSON is the wire form of one rescan run's outcome.
type rescanStatsJSON struct {
	Digests    int         `json:"digests"`
	Amended    int         `json:"amended"`
	Additions  int         `json:"additions"`
	Retracted  int         `json:"retracted"`
	SkippedCap int         `json:"skipped_truncated"`
	Ruleset    rulesetJSON `json:"ruleset"`
}

// handleRulesetRescan runs the queued re-attribution pass synchronously and
// reports what it amended. Rescans are serialized inside the registry, so a
// concurrent POST waits rather than doubling work.
func (s *Server) handleRulesetRescan(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "ruleset registry not enabled", http.StatusNotFound)
		return
	}
	st, err := s.cfg.Registry.Rescan(s.cfg.Store)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, rescanStatsJSON{
		Digests:    st.Digests,
		Amended:    st.Amended,
		Additions:  st.Additions,
		Retracted:  st.Retracted,
		SkippedCap: st.SkippedCap,
		Ruleset:    s.rulesetState(),
	})
}

// eventJSON is the wire form of an attributed event.
type eventJSON struct {
	Time      time.Time `json:"time"`
	Src       string    `json:"src"`
	Dst       string    `json:"dst"`
	SID       int       `json:"sid"`
	CVE       string    `json:"cve,omitempty"`
	Published time.Time `json:"rule_published"`
	Msg       string    `json:"msg"`
	Bytes     int       `json:"bytes"`
	Ambiguous bool      `json:"ambiguous,omitempty"`
}

func toEventJSON(ev ids.Event) eventJSON {
	return eventJSON{
		Time: ev.Time, Src: ev.Src.String(), Dst: ev.Dst.String(),
		SID: ev.SID, CVE: ev.CVE, Published: ev.Published,
		Msg: ev.Msg, Bytes: ev.Bytes, Ambiguous: ev.Ambiguous,
	}
}

// handleEvents serves raw attributed events from a timeline view: the whole
// log, or the log as it stood at ?asof=. The cve, since and until filters
// narrow the read itself; limit caps the events listed, not the total. The
// body's generation and ETag are the ones the view read at; bodies are built
// per request rather than cached.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	asof, err := parseDateParam(q.Get("asof"))
	if err != nil {
		http.Error(w, "bad asof: "+err.Error(), http.StatusBadRequest)
		return
	}
	f := timeline.Filter{CVE: trimCVE(q.Get("cve"))}
	if f.Since, err = parseTimeParam(q.Get("since")); err != nil {
		http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
		return
	}
	if f.Until, err = parseTimeParam(q.Get("until")); err != nil {
		http.Error(w, "bad until: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	at := timeline.Forever
	if !asof.IsZero() {
		at = asof
	}
	v, err := s.cfg.Timeline.AsOf(at)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	key := fmt.Sprintf("events?cve=%s&since=%s&until=%s&limit=%d&asof=%s", f.CVE,
		f.Since.UTC().Format(time.RFC3339Nano), f.Until.UTC().Format(time.RFC3339Nano),
		limit, asof.UTC().Format(time.RFC3339Nano))
	etag := responseETag(v.Generation(), key)
	if notModified(r, etag) {
		writeNotModified(w, v.Generation(), etag)
		return
	}
	events, err := v.Read(f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := struct {
		Generation uint64      `json:"generation"`
		Total      int         `json:"total"`
		Events     []eventJSON `json:"events"`
	}{Generation: v.Generation(), Total: len(events), Events: []eventJSON{}}
	if limit > 0 && limit < len(events) {
		events = events[:limit]
	}
	for _, ev := range events {
		out.Events = append(out.Events, toEventJSON(ev))
	}
	body, err := json.Marshal(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.write(w, v.Generation(), etag, body, "application/json")
}

func parseTimeParam(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, v)
}

// parseDateParam accepts either a full RFC 3339 instant or a bare
// YYYY-MM-DD date (midnight UTC) — the forms ?asof=, ?from=, and ?to= take.
func parseDateParam(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", v)
	if err != nil {
		return time.Time{}, fmt.Errorf("want RFC 3339 or YYYY-MM-DD, got %q", v)
	}
	return t, nil
}

// trimCVE normalizes "CVE-2021-44228" to the repo's bare "2021-44228" form.
func trimCVE(cve string) string {
	return strings.TrimPrefix(strings.TrimPrefix(cve, "CVE-"), "cve-")
}

func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	cve := trimCVE(r.PathValue("cve"))
	s.serveCached(w, r, "lifecycle/"+cve, func(res *wayback.Results) ([]byte, string, error) {
		for i := range res.Timelines {
			if res.Timelines[i].CVE == cve {
				return marshalTimeline(&res.Timelines[i])
			}
		}
		return nil, "", errNotFound{"no lifecycle for CVE-" + cve}
	})
}

// errNotFound lets a cache builder signal 404 instead of 500.
type errNotFound struct{ msg string }

func (e errNotFound) Error() string { return e.msg }

func marshalTimeline(tl *lifecycle.Timeline) ([]byte, string, error) {
	out := struct {
		CVE        string            `json:"cve"`
		Impact     float64           `json:"impact"`
		EventCount int               `json:"event_count"`
		Events     map[string]string `json:"events"`
	}{CVE: "CVE-" + tl.CVE, Impact: tl.Impact, EventCount: tl.EventCount, Events: map[string]string{}}
	for _, e := range lifecycle.EventTypes() {
		if tl.Events[e].Known {
			out.Events[e.Letter()] = tl.Events[e].At.UTC().Format(time.RFC3339)
		}
	}
	body, err := json.Marshal(out)
	return body, "application/json", err
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	s.serveCached(w, r, "table/"+n, func(res *wayback.Results) ([]byte, string, error) {
		// Table 5 ranks raw event volumes, so a lazy as-of Results must load
		// its event set first; the others read aggregates already in hand.
		if n == "5" {
			if err := res.MaterializeEvents(); err != nil {
				return nil, "", err
			}
		}
		var text string
		switch n {
		case "1":
			text = res.Table1().String()
		case "2":
			text = res.Table2().String()
		case "3":
			text = res.Table3()
		case "4":
			text = res.Table4().String()
		case "5":
			text = res.Table5().String()
		case "6":
			text = res.Table6().String()
		case "E", "e":
			text = res.AppendixE().String()
		default:
			return nil, "", errNotFound{fmt.Sprintf("unknown table %q (1-6, E)", n)}
		}
		return []byte(text), "text/plain; charset=utf-8", nil
	})
}

// handleFigure serves the paper's figures as CSV, in the same shapes
// waybackctl's `all` command writes to disk.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveCached(w, r, "figure/"+id, func(res *wayback.Results) ([]byte, string, error) {
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, "", errNotFound{fmt.Sprintf("figure wants a number 1-18, got %q", id)}
		}
		if n == 2 {
			body, err := s.figure2()
			return body, "text/csv", err
		}
		// The other figures are distributions over the raw events; force the
		// lazy as-of event set so a segment read error surfaces as a 500, not
		// a panic.
		if err := res.MaterializeEvents(); err != nil {
			return nil, "", err
		}
		switch n {
		case 1:
			return histogramCSV("figure1", "days-into-study", res.Figure1())
		case 3:
			return histogramCSV("figure3", "days-into-study", res.Figure3())
		case 4:
			return histogramCSV("figure4", "days-since-publication", res.Figure4())
		case 5:
			var series []report.Series
			for _, f := range res.Figure5() {
				series = append(series, report.FromECDF(f.Label, "days", f.CDF))
			}
			return seriesCSV(series...)
		case 6:
			f := res.Figure6()
			tab := report.Table{Title: "Figure 6", Headers: []string{"bin-start-days", "mitigated", "unmitigated"}}
			for i := range f.Mitigated {
				tab.AddRow(fmt.Sprintf("%g", f.BinStart(i)), f.Mitigated[i], f.Unmit[i])
			}
			return tableCSV(tab)
		case 7:
			f := res.Figure7()
			return seriesCSV(
				report.FromECDF("mitigated", "days", f.Mitigated),
				report.FromECDF("unmitigated", "days", f.Unmit))
		case 8:
			return seriesCSV(report.FromECDF("log4shell", "days", res.Figure8().CDF))
		case 9:
			var series []report.Series
			for _, g := range res.Figure9() {
				series = append(series, report.FromECDF("group "+g.Group, "days", g.CDF))
			}
			return seriesCSV(series...)
		case 10:
			return seriesCSV(res.Figure10())
		case 11:
			return seriesCSV(res.Figure11())
		case 12:
			return seriesCSV(report.FromECDF("confluence", "days", res.Figure12().CDF))
		case 13, 14, 15, 16, 17, 18:
			f := res.Figures13to18()[n-13]
			return seriesCSV(report.FromECDF(f.Label, "days", f.CDF))
		default:
			return nil, "", errNotFound{fmt.Sprintf("unknown figure %d", n)}
		}
	})
}

func histogramCSV(name, binLabel string, h *stats.Histogram) ([]byte, string, error) {
	tab := report.HistogramTable(name, binLabel, h, func(i int) string {
		return fmt.Sprintf("%g", h.BinStart(i))
	})
	return tableCSV(tab)
}

func tableCSV(tab report.Table) ([]byte, string, error) {
	var b bytes.Buffer
	if err := tab.WriteCSV(&b); err != nil {
		return nil, "", err
	}
	return b.Bytes(), "text/csv", nil
}

func seriesCSV(series ...report.Series) ([]byte, string, error) {
	var b bytes.Buffer
	if err := report.WriteSeriesCSV(&b, series...); err != nil {
		return nil, "", err
	}
	return b.Bytes(), "text/csv", nil
}
