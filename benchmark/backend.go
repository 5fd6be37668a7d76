package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/serve"
	"repro/internal/timeline"
	"repro/wayback"
)

// The two back-end workloads share one fixture, the rig: the coordinator half
// of the system wired the way cmd/waybackd wires it — on-disk event store,
// timeline engine sealing on a ticker, HTTP read API on a loopback listener,
// and (for fleet_ingest) the fleet listener in front of the store.

// corpus is the event set the back-end workloads ship, append and query:
// one materialized study, cut into fixed-size batches.
type corpus struct {
	study  *wayback.Study // PipelineTimelines: tables follow the stored events
	events []ids.Event
	// cves lists the attributed CVEs, most-exploited first: the order the
	// zipf-skewed reads rank them in. firstSeen is each one's earliest event:
	// before it the CVE has no lifecycle to ask for.
	cves      []string
	firstSeen map[string]time.Time
	from, to  time.Time // span of event times
	batch     int
}

func newCorpus(seed int64, scale, batch int) (*corpus, error) {
	gen, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	res, err := gen.Run()
	if err != nil {
		return nil, fmt.Errorf("generating the event corpus: %w", err)
	}
	// The serving study derives lifecycles from the stored events, as
	// waybackd does by default, so every commit changes what the tables say.
	study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale, PipelineTimelines: true})
	if err != nil {
		return nil, err
	}
	c := &corpus{study: study, events: res.Events, batch: batch, firstSeen: make(map[string]time.Time)}
	if len(c.events) < batch {
		return nil, fmt.Errorf("corpus of %d events is smaller than one batch of %d", len(c.events), batch)
	}
	perCVE := make(map[string]int)
	c.from, c.to = c.events[0].Time, c.events[0].Time
	for i := range c.events {
		ev := &c.events[i]
		perCVE[ev.CVE]++
		if first, ok := c.firstSeen[ev.CVE]; !ok || ev.Time.Before(first) {
			c.firstSeen[ev.CVE] = ev.Time
		}
		if ev.Time.Before(c.from) {
			c.from = ev.Time
		}
		if ev.Time.After(c.to) {
			c.to = ev.Time
		}
	}
	for cve := range perCVE {
		c.cves = append(c.cves, cve)
	}
	sort.Slice(c.cves, func(i, j int) bool {
		if perCVE[c.cves[i]] != perCVE[c.cves[j]] {
			return perCVE[c.cves[i]] > perCVE[c.cves[j]]
		}
		return c.cves[i] < c.cves[j]
	})
	return c, nil
}

// batches is how many whole batches one walk through the corpus yields.
func (c *corpus) batches() int { return len(c.events) / c.batch }

// batchAt returns the k-th batch of an endless sequence: the corpus walked
// over and over, each further walk shifted one second later so that no two
// batches carry the same session.
func (c *corpus) batchAt(k int) []ids.Event {
	walk, i := k/c.batches(), k%c.batches()
	src := c.events[i*c.batch : (i+1)*c.batch]
	if walk == 0 {
		return src
	}
	out := make([]ids.Event, len(src))
	for j := range src {
		out[j] = src[j]
		out[j].Time = out[j].Time.Add(time.Duration(walk) * time.Second)
	}
	return out
}

// rig is one running coordinator.
type rig struct {
	store    *eventstore.Store
	tl       *timeline.Engine
	listener *fleet.Listener // nil without the fleet front
	server   *serve.Server
	httpSrv  *http.Server
	base     string // http://127.0.0.1:port
	tickStop chan struct{}
	tickDone chan struct{}
	httpDone chan struct{}
	tickErr  error
}

// newRig starts a coordinator under dir. tickEvery > 0 runs the timeline's
// sealer on that interval, as the daemon does.
func newRig(dir string, c *corpus, withFleet bool, tickEvery time.Duration) (*rig, error) {
	store, err := wayback.OpenStore(filepath.Join(dir, "events"))
	if err != nil {
		return nil, err
	}
	g := &rig{store: store}
	fail := func(err error) (*rig, error) {
		g.close()
		return nil, err
	}
	if g.tl, err = c.study.OpenTimeline(filepath.Join(dir, "timeline"), store, timeline.Config{}); err != nil {
		return fail(err)
	}
	cfg := serve.Config{Study: c.study, Store: store, Timeline: g.tl}
	if withFleet {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		if g.listener, err = fleet.Listen(fleet.ListenerConfig{Listener: ln, Sink: store, Dir: store.Dir()}); err != nil {
			ln.Close()
			return fail(err)
		}
		cfg.Fleet = g.listener
	}
	if g.server, err = serve.New(cfg); err != nil {
		return fail(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	g.base = "http://" + hl.Addr().String()
	g.httpSrv = &http.Server{Handler: g.server.Handler()}
	g.httpDone = make(chan struct{})
	go func() {
		defer close(g.httpDone)
		// Serve returns ErrServerClosed once close shuts the server down.
		_ = g.httpSrv.Serve(hl)
	}()
	if tickEvery > 0 {
		g.tickStop, g.tickDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(g.tickDone)
			t := time.NewTicker(tickEvery)
			defer t.Stop()
			for {
				select {
				case <-g.tickStop:
					return
				case <-t.C:
					if _, err := g.tl.Tick(); err != nil && g.tickErr == nil {
						g.tickErr = err
					}
				}
			}
		}()
	}
	return g, nil
}

// close stops every goroutine the rig started, in dependency order, and
// reports the first failure (including one the sealer met while running).
func (g *rig) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if g.tickStop != nil {
		close(g.tickStop)
		<-g.tickDone
		keep(g.tickErr)
	}
	if g.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(g.httpSrv.Shutdown(ctx))
		cancel()
		<-g.httpDone
	}
	if g.listener != nil {
		keep(g.listener.Close())
	}
	keep(g.store.Close())
	return first
}

// client is one keep-alive HTTP connection to a rig.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// get fetches path and returns the body; any status but 200 is an error.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

// scrape reads one un-labelled series from the rig's /metrics page.
func scrape(page []byte, series string) float64 {
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// setStoreMetrics reports what the store and timeline say about themselves.
func setStoreMetrics(o *outcome, g *rig) {
	if n := g.store.Len(); n > 0 {
		o.set("eventstore.bytes_per_event", float64(g.store.SizeBytes())/float64(n), 0)
	}
	var most, sum float64
	shards := g.store.ShardStats()
	for _, s := range shards {
		sum += float64(s.Records)
		if r := float64(s.Records); r > most {
			most = r
		}
	}
	if sum > 0 {
		o.set("eventstore.shard_skew", most/(sum/float64(len(shards))), 0)
	}
	m := g.tl.Metrics()
	o.set("timeline.segments", float64(m.Segments), 0)
	o.set("timeline.checkpoints", float64(m.Checkpoints), 0)
	if m.SealedEvents > 0 {
		o.set("timeline.sealed_bytes_per_event", float64(m.SealedBytes)/float64(m.SealedEvents), 0)
	}
}

// setServeMetrics reports the read API's cache and fold counters, the latter
// scraped from /metrics because the server owns its Incremental.
func setServeMetrics(o *outcome, g *rig, c *client) error {
	hits, misses := g.server.CacheStats()
	if hits+misses > 0 {
		o.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), 0)
	}
	page, err := c.get("/metrics")
	if err != nil {
		return err
	}
	o.set("wayback.folds", scrape(page, "waybackd_results_folds_total"), 0)
	o.set("wayback.folded_events", scrape(page, "waybackd_results_folded_events_total"), 0)
	o.set("wayback.rebuilds", scrape(page, "waybackd_results_rebuilds_total"), 0)
	return nil
}
