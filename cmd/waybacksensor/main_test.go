package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/serve"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
	"repro/internal/timeline"
	"repro/wayback"
)

// flakyProxy sits between sensors and the coordinator and kills each
// connection pair after a byte budget, doubling the budget per kill so
// progress is guaranteed; after maxKills the wire behaves.
type flakyProxy struct {
	ln      net.Listener
	backend string
	budget  atomic.Int64
	kills   atomic.Int64
	maxKill int64
	wg      sync.WaitGroup
}

func startFlakyProxy(t *testing.T, backend string, firstBudget int64, maxKills int64) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend, maxKill: maxKills}
	p.budget.Store(firstBudget)
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.pipe(conn)
	}
}

func (p *flakyProxy) pipe(down net.Conn) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
	if err != nil {
		down.Close()
		return
	}
	var moved atomic.Int64
	var once sync.Once
	kill := func() { once.Do(func() { down.Close(); up.Close() }) }
	budget := int64(-1)
	if p.kills.Load() < p.maxKill {
		budget = p.budget.Load()
	}
	copy := func(dst, src net.Conn) {
		defer p.wg.Done()
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if budget >= 0 && moved.Add(int64(n)) > budget {
					if p.kills.Add(1) <= p.maxKill {
						p.budget.Store(budget * 2)
						kill()
						return
					}
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					kill()
					return
				}
			}
			if err != nil {
				kill()
				return
			}
		}
	}
	p.wg.Add(2)
	go copy(up, down)
	go copy(down, up)
}

// coordinator is the waybackd fleet wiring, reopened across the simulated
// crash: eventstore + fleet listener (sharing the watermark journal dir) +
// the HTTP query layer.
type coordinator struct {
	store *eventstore.Store
	fl    *fleet.Listener
	srv   *serve.Server
}

func openCoordinator(t *testing.T, study *wayback.Study, storeDir string, ln net.Listener) *coordinator {
	t.Helper()
	store, err := wayback.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.Listen(fleet.ListenerConfig{Listener: ln, Sink: store, Dir: store.Dir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(withTimeline(t, study, serve.Config{Study: study, Store: store, Fleet: fl}))
	if err != nil {
		t.Fatal(err)
	}
	return &coordinator{store: store, fl: fl, srv: srv}
}

func (c *coordinator) close(t *testing.T) {
	t.Helper()
	if err := c.fl.Close(); err != nil {
		t.Fatalf("closing fleet listener: %v", err)
	}
	if err := c.store.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
}

// TestFleetEndToEnd is the acceptance test for the distributed fleet: three
// sensors shipping through a connection-killing proxy, plus one coordinator
// crash-and-restart mid-stream, still converge to a store with exactly the
// batch study's events — zero duplicates — and a /v1/tables/4 byte-identical
// to the batch Study.Run() rendering.
func TestFleetEndToEnd(t *testing.T) {
	const seed, scale, shards = 1, 50, 3

	// Batch truth.
	study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantTable4 := batch.Table4().String()

	// Coordinator on a pinned port (so a restart rebinds the same address).
	flLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flAddr := flLn.Addr().String()
	storeDir := t.TempDir()
	coord := openCoordinator(t, study, storeDir, flLn)

	// The proxy injects disconnects between every sensor and the coordinator.
	proxy := startFlakyProxy(t, flAddr, 2<<10, 6)

	// Shard-partitioned captures, waybackfeed-style: each sensor tails its own
	// slice of the telescope's traffic.
	bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	sessions := telescope.NewSim(telescope.SimConfig{Seed: seed}).Sessions(bps)
	watchDirs := make([]string, shards)
	for i := range watchDirs {
		watchDirs[i] = t.TempDir()
	}

	// Sensors first, so they tail the captures as they are written.
	sensors := make([]*sensor, shards)
	ids := []string{"sensor-0", "sensor-1", "sensor-2"}
	for i := 0; i < shards; i++ {
		s, err := openSensor(sensorConfig{
			watchDir: watchDirs[i], stateDir: t.TempDir(),
			coordinator: proxy.addr(), id: ids[i],
			shard: i, shards: shards, seed: seed,
			window: 4, heartbeat: 50 * time.Millisecond,
			prefix: "dscope", poll: 5 * time.Millisecond,
			flushIdle: 50 * time.Millisecond, batch: 64,
			backoffMin: 20 * time.Millisecond, backoffMax: 300 * time.Millisecond,
			enforceShardOf: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sensors[i] = s
	}
	defer func() {
		for _, s := range sensors {
			if s != nil {
				s.close(0)
			}
		}
	}()

	// Feed: every session goes to exactly the shard its destination hashes to.
	writers := make([]*pcapio.RotatingWriter, shards)
	for i := range writers {
		writers[i], err = pcapio.NewRotatingWriter(watchDirs[i], "dscope",
			pcapio.LinkTypeEthernet, 128<<10, pcapio.WithNanoPrecision())
		if err != nil {
			t.Fatal(err)
		}
	}
	for start := 0; start < len(sessions); start += 500 {
		end := start + 500
		if end > len(sessions) {
			end = len(sessions)
		}
		chunk := sessions[start:end]
		for sh := 0; sh < shards; sh++ {
			var mine []tcpasm.Session
			for i := range chunk {
				if fleet.ShardOf(chunk[i].Server.Addr, shards) == sh {
					mine = append(mine, chunk[i])
				}
			}
			if err := telescope.SessionsToPcap(mine, writers[sh], seed); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Crash the coordinator once some of the stream has been applied, then
	// bring it back on the same port with the same store + watermark journal.
	restartAt := len(batch.Events) / 5
	deadline := time.Now().Add(120 * time.Second)
	for coord.store.Len() < restartAt {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck at %d/%d events before restart", coord.store.Len(), restartAt)
		}
		time.Sleep(5 * time.Millisecond)
	}
	coord.close(t)
	time.Sleep(50 * time.Millisecond) // let sensors notice and start retrying
	flLn2, err := net.Listen("tcp", flAddr)
	if err != nil {
		t.Fatal(err)
	}
	coord = openCoordinator(t, study, storeDir, flLn2)
	defer coord.close(t)

	// Convergence: drain each pipeline (the capture is fully written, so
	// Close consumes it all and flushes still-open connections into the
	// spool), then wait for the coordinator to ack every spooled batch.
	for i, s := range sensors {
		if err := s.pipeline.Close(); err != nil {
			t.Fatalf("%s pipeline drain: %v", ids[i], err)
		}
	}
	for i, s := range sensors {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		err := s.shipper.WaitDrained(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s shipper never drained: %v (%+v)", ids[i], err, s.shipper.Metrics())
		}
	}

	if proxy.kills.Load() == 0 {
		t.Fatal("proxy never injected a disconnect; the test exercised nothing")
	}

	// Exactly-once audit: per-sensor sequence accounting. Every assigned
	// sequence is acked (nothing lost), and the coordinator's durable
	// watermark equals the highest assigned sequence (nothing applied twice:
	// a duplicate apply would have forced the watermark past the spool).
	var shippedEvents int64
	for i, s := range sensors {
		m := s.shipper.Metrics()
		if m.Spooled != 0 || m.AckedSeq != m.LastSeq {
			t.Errorf("%s: spool not drained: %+v", ids[i], m)
		}
		if w := coord.fl.Watermarks().Get(ids[i]); w != m.LastSeq {
			t.Errorf("%s: watermark %d, sensor assigned through %d", ids[i], w, m.LastSeq)
		}
		if m.SentBatch < m.LastSeq {
			t.Errorf("%s: sent %d batch frames for %d batches", ids[i], m.SentBatch, m.LastSeq)
		}
		shippedEvents += int64(s.pipeline.Metrics().Events)
	}

	// Zero loss, zero duplication: the union of the three shards is exactly
	// the batch study's event set.
	if got := coord.store.Len(); got != len(batch.Events) {
		t.Fatalf("store holds %d events, batch found %d (shipped %d)", got, len(batch.Events), shippedEvents)
	}
	if shippedEvents != int64(len(batch.Events)) {
		t.Errorf("sensors matched %d events, batch found %d", shippedEvents, len(batch.Events))
	}

	// The paper's Table 4 over the fleet-assembled store is byte-identical to
	// the batch run.
	ts := httptest.NewServer(coord.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/tables/4")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables/4: %d: %s", resp.StatusCode, body)
	}
	if string(body) != wantTable4 {
		t.Errorf("fleet Table 4 differs from batch run:\n--- fleet ---\n%s--- batch ---\n%s", body, wantTable4)
	}

	// The fleet status surface saw all three sensors.
	statuses := coord.fl.Sensors()
	if len(statuses) != shards {
		t.Fatalf("coordinator knows %d sensors, want %d", len(statuses), shards)
	}
	t.Logf("proxy kills: %d; per-sensor: %+v", proxy.kills.Load(), statuses)
}

// collectSink records batches and keeps the slices it was handed, the way
// the fleet shipper's spool does.
type collectSink struct{ batches [][]ids.Event }

func (c *collectSink) AppendBatch(events []ids.Event) error {
	c.batches = append(c.batches, events)
	return nil
}

// TestShardSinkDoesNotMutateCaller: the shard filter must hand its inner
// sink a fresh slice. Filtering with events[:0] would rearrange the caller's
// batch in place while the spool retains the filtered view — correctness
// must not depend on the caller discarding the batch after AppendBatch.
func TestShardSinkDoesNotMutateCaller(t *testing.T) {
	const shards = 3
	events := make([]ids.Event, 30)
	for i := range events {
		events[i] = ids.Event{
			Dst: packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("18.204.9.%d", i+1)), Port: 443},
			SID: i,
		}
	}
	orig := append([]ids.Event(nil), events...)
	inner := &collectSink{}
	s := &shardSink{inner: inner, shard: 0, shards: shards}
	if err := s.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if events[i] != orig[i] {
			t.Fatalf("AppendBatch mutated the caller's slice at %d: %+v", i, events[i])
		}
	}
	if len(inner.batches) != 1 {
		t.Fatalf("%d inner batches", len(inner.batches))
	}
	for _, ev := range inner.batches[0] {
		if fleet.ShardOf(ev.Dst.Addr, shards) != 0 {
			t.Fatalf("kept event outside shard 0: %+v", ev)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing required flags accepted")
	}
	if err := run([]string{
		"-watch", t.TempDir(), "-state", t.TempDir(),
		"-coordinator", "127.0.0.1:1", "-id", "x",
		"-shard", "3", "-shards", "3",
	}); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// withTimeline gives cfg a timeline engine over its store, in a fresh
// directory: serve.New requires one.
func withTimeline(t *testing.T, study *wayback.Study, cfg serve.Config) serve.Config {
	t.Helper()
	eng, err := study.OpenTimeline(t.TempDir(), cfg.Store, timeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timeline = eng
	return cfg
}
