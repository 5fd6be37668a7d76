package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/serve"
	"repro/internal/timeline"
	"repro/wayback"
)

// The traced back-end driver calls each layer's public functions one at a
// time on the calling goroutine, a span around each call: batch encode and
// decode (fleet), append, sync and snapshot (eventstore), seal and as-of
// (timeline), the incremental fold (wayback), and the HTTP handler on a
// recorder per request class (serve). There is no socket, no goroutine and no
// queue in it, so a span's time is that layer's own cost.

// backendMix picks which calls dominate a traced pass: fleet_ingest's is
// write-heavy, read_mix's read-heavy. Both make every kind of call.
type backendMix struct {
	name string
	// batches appended per pass, with a commit (sync, fold, bump read) every
	// commitEvery of them and a seal (plus snapshot, as-of, diff) every
	// sealEvery.
	batches, commitEvery, sealEvery int
	// reads issued through the recorder after every commit, drawn from the
	// seeded request mix.
	readsPerCommit int
}

// tracedBackend is the fixture of one traced back-end pass.
type tracedBackend struct {
	tr    *tracer
	pass  int32
	root  int32
	c     *corpus
	store *eventstore.Store
	tl    *timeline.Engine
	inc   *wayback.Incremental
	srv   http.Handler

	replayed samples // events an as-of query replayed past its checkpoint
	wire     int64   // encoded batch bytes
	encoded  int64   // events encoded
}

func (b *tracedBackend) span(name string, units int, fn func() error) error {
	sp := b.tr.begin(name, b.root, b.pass)
	err := fn()
	b.tr.end(sp, units)
	return err
}

// serve runs one request through the handler on a recorder.
func (b *tracedBackend) serve(name, path string) error {
	return b.span(name, 1, func() error {
		rec := httptest.NewRecorder()
		b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s on the recorder: status %d", path, rec.Code)
		}
		return nil
	})
}

// write moves batch k through the wire codec and into the store.
func (b *tracedBackend) write(k int) error {
	batch := b.c.batchAt(k)
	var wire []byte
	err := b.span("fleet.encode", len(batch), func() (err error) {
		wire, err = fleet.EncodeEventBatch(uint64(k+1), batch, fleet.CodecSnappy)
		return err
	})
	if err != nil {
		return err
	}
	b.wire += int64(len(wire))
	b.encoded += int64(len(batch))
	var decoded []ids.Event
	err = b.span("fleet.decode", len(batch), func() (err error) {
		_, decoded, err = fleet.DecodeEventBatch(wire)
		return err
	})
	if err != nil {
		return err
	}
	return b.span("eventstore.append", len(decoded), func() error { return b.store.AppendBatch(decoded) })
}

// commit makes the appends durable, folds them into the running results and
// reads Table 4 twice: the first read rebuilds the body, the second hits the
// cache.
func (b *tracedBackend) commit(newEvents int) error {
	if err := b.span("eventstore.sync", 1, b.store.Sync); err != nil {
		return err
	}
	if err := b.span("wayback.fold", newEvents, func() error { b.inc.Results(); return nil }); err != nil {
		return err
	}
	if err := b.serve("serve.bump", "/v1/tables/4"); err != nil {
		return err
	}
	return b.serve("serve.cached", "/v1/tables/4")
}

// seal cuts a timeline segment, then exercises what reads sealed history.
func (b *tracedBackend) seal(mix *mixer) error {
	if err := b.span("timeline.seal", 1, func() error { _, err := b.tl.Seal(); return err }); err != nil {
		return err
	}
	if err := b.span("eventstore.snapshot", 1, func() error { b.store.Snapshot(); return nil }); err != nil {
		return err
	}
	at := mix.instant()
	err := b.span("timeline.asof", 1, func() error {
		v, err := b.tl.AsOf(at)
		if err == nil {
			b.replayed = append(b.replayed, float64(v.Replayed()))
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := b.serve("serve.asof", "/v1/tables/4?asof="+stamp(mix.instant())); err != nil {
		return err
	}
	from, to := mix.instant(), mix.instant()
	if to.Before(from) {
		from, to = to, from
	}
	return b.serve("serve.diff", "/v1/diff?from="+stamp(from)+"&to="+stamp(to))
}

// classSpan names the span a mixed read is recorded under.
var classSpan = [numClasses]string{classCached: "serve.cached", classAsOf: "serve.asof", classDiff: "serve.diff"}

// tracedBackendPass runs one pass of the mix against a fresh store under dir.
func tracedBackendPass(tr *tracer, id int32, dir string, c *corpus, m backendMix, seed int64) (wall time.Duration, b *tracedBackend, err error) {
	store, err := wayback.OpenStore(filepath.Join(dir, "events"))
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	tl, err := c.study.OpenTimeline(filepath.Join(dir, "timeline"), store, timeline.Config{})
	if err != nil {
		return 0, nil, err
	}
	srv, err := serve.New(serve.Config{Study: c.study, Store: store, Timeline: tl})
	if err != nil {
		return 0, nil, err
	}
	// The store starts with the whole corpus committed and sealed, as a
	// coordinator with history has; the pass appends a further walk of it.
	for k := 0; k < c.batches(); k++ {
		if err := store.AppendBatch(c.batchAt(k)); err != nil {
			return 0, nil, err
		}
	}
	if err := store.Sync(); err != nil {
		return 0, nil, err
	}
	if _, err := tl.Seal(); err != nil {
		return 0, nil, err
	}
	b = &tracedBackend{tr: tr, pass: id, c: c, store: store, tl: tl, inc: c.study.NewIncremental(store), srv: srv.Handler()}
	b.inc.Results() // the one full build; every later call is a fold
	mix := newMixer(c, seed)

	t0 := time.Now()
	b.root = tr.begin("pass", -1, id)
	pending := 0
	for k := c.batches(); k < c.batches()+m.batches; k++ {
		if err := b.write(k); err != nil {
			return 0, nil, err
		}
		pending += c.batch
		if (k+1)%m.commitEvery == 0 {
			if err := b.commit(pending); err != nil {
				return 0, nil, err
			}
			pending = 0
			for i := 0; i < m.readsPerCommit; i++ {
				path, class := mix.next()
				if err := b.serve(classSpan[class], path); err != nil {
					return 0, nil, err
				}
			}
		}
		if (k+1)%m.sealEvery == 0 {
			if err := b.seal(mix); err != nil {
				return 0, nil, err
			}
		}
	}
	tr.end(b.root, m.batches)
	wall = time.Since(t0)

	if want := (c.batches() + m.batches) * c.batch; store.Len() != want {
		return 0, nil, fmt.Errorf("traced pass: store holds %d events, %d were appended", store.Len(), want)
	}
	return wall, b, nil
}

// traceBackend runs traced passes of the mix for the given share of the
// budget and turns the spans into the back-end layers' metrics.
func traceBackend(r *run, o *outcome, c *corpus, m backendMix, share float64) error {
	kept := make(map[int32]bool)
	var tracedMs, replayed samples
	var wire, encoded int64
	deadline := time.Now().Add(r.share(share))
	for pass := int32(0); len(tracedMs) < r.sz.minPasses || time.Now().Before(deadline); pass++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("traced-%d", pass))
		wall, b, err := tracedBackendPass(r.tr, pass, dir, c, m, r.seed+int64(pass))
		if err != nil {
			return err
		}
		if pass == 0 { // warm-up, discarded
			continue
		}
		kept[pass] = true
		tracedMs = append(tracedMs, float64(wall)/1e6)
		replayed = append(replayed, b.replayed...)
		wire, encoded = wire+b.wire, encoded+b.encoded
	}

	layers := r.tr.byLayer(kept)
	var passWall time.Duration
	for _, ms := range tracedMs {
		passWall += time.Duration(ms * 1e6)
	}
	o.set("fleet.encode_ns_per_event", layers["fleet.encode"].perUnit(), 0)
	o.set("fleet.decode_ns_per_event", layers["fleet.decode"].perUnit(), 0)
	if encoded > 0 {
		o.set("fleet.wire_bytes_per_event", float64(wire)/float64(encoded), 0)
	}
	o.set("eventstore.append_ns_per_event", layers["eventstore.append"].perUnit(), 0)
	for metric, layer := range map[string]string{
		"eventstore.sync_ms_p50":     "eventstore.sync",
		"eventstore.snapshot_ms_p50": "eventstore.snapshot",
		"timeline.seal_ms_p50":       "timeline.seal",
		"timeline.asof_ms_p50":       "timeline.asof",
		"wayback.fold_ms_p50":        "wayback.fold",
		"serve.bump_ms_p50":          "serve.bump",
		"serve.asof_ms_p50":          "serve.asof",
		"serve.diff_ms_p50":          "serve.diff",
	} {
		if l := layers[layer]; l != nil {
			o.set(metric, l.callMedianMs(), len(l.calls))
		}
	}
	if l := layers["serve.cached"]; l != nil {
		o.set("serve.cached_us_p50", l.callMedianMs()*1e3, len(l.calls))
	}
	o.set("timeline.asof_replayed_per_query", replayed.median(), len(replayed))

	harness := float64(layers["pass"].self) / float64(passWall)
	o.set("bench.harness_share", harness, 0)
	if harness > harnessLimit {
		o.note("HARNESS-DOMINATED: %s spends %.0f%% of a serial pass in the benchmark's own code (limit %.0f%%)", o.Workload, harness*100, harnessLimit*100)
	}
	// This driver has no untraced twin in the product to be compared with,
	// and a pass that fsyncs dozens of times cannot resolve a sub-percent
	// difference between two runs of itself; tracing's share is therefore
	// computed: spans recorded times the calibrated cost of one.
	spans := 0
	for _, l := range layers {
		spans += len(l.calls)
	}
	overhead := float64(spans) * float64(spanCost()) / float64(passWall)
	o.set("bench.trace_overhead_ratio", overhead, len(tracedMs))
	if overhead > overheadLimit {
		o.note("INVALID: tracing takes %.0f%% of a traced %s pass (limit %.0f%%)", overhead*100, m.name, overheadLimit*100)
	}
	return nil
}
