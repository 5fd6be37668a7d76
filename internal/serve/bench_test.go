package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/wayback"
)

// newBenchFixture builds a seed-1 study at the given scale, a store holding
// its full event set, and a server over both — the same shape the daemon
// runs. Remember Scale divides the paper's event volumes, so scale 2 is a
// 25x larger corpus than the test-default 50.
func newBenchFixture(b *testing.B, scale int) (*wayback.Study, *eventstore.Store, *Server, *wayback.Results) {
	b.Helper()
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, Scale: scale, PipelineTimelines: true})
	if err != nil {
		b.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		b.Fatal(err)
	}
	store, err := wayback.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	if err := store.AppendBatch(batch.Events); err != nil {
		b.Fatal(err)
	}
	srv, err := New(withTimeline(b, Config{Study: study, Store: store}))
	if err != nil {
		b.Fatal(err)
	}
	return study, store, srv, batch
}

func benchGet(b *testing.B, h http.Handler, path string) {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkServeRead is the steady-state read: a cache-hit GET of Table 4
// through the full handler stack (mux, latency instrumentation, ETag,
// generation check). This is the p99 floor the load rig's SLO sits on.
func BenchmarkServeRead(b *testing.B) {
	_, _, srv, _ := newBenchFixture(b, 50)
	h := srv.Handler()
	benchGet(b, h, "/v1/tables/4") // prime the generation cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, h, "/v1/tables/4")
	}
}

// BenchmarkGenerationBump measures the cost of the first read after an
// append invalidates every cached body. The incremental path folds only the
// new event into the running aggregates; the cold path is what every such
// read cost before: a full replay of the store. The ratio between the two is
// the quantity under test — both sides are recorded in BENCH_analysis.json.
func BenchmarkGenerationBump(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		_, store, srv, batch := newBenchFixture(b, 2)
		h := srv.Handler()
		benchGet(b, h, "/v1/tables/4") // initial build
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := batch.Events[i%len(batch.Events)]
			ev.Time = ev.Time.Add(time.Duration(i+1) * time.Millisecond)
			if err := store.AppendBatch([]ids.Event{ev}); err != nil {
				b.Fatal(err)
			}
			benchGet(b, h, "/v1/tables/4")
		}
	})
	b.Run("cold", func(b *testing.B) {
		study, store, _, batch := newBenchFixture(b, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := batch.Events[i%len(batch.Events)]
			ev.Time = ev.Time.Add(time.Duration(i+1) * time.Millisecond)
			if err := store.AppendBatch([]ids.Event{ev}); err != nil {
				b.Fatal(err)
			}
			res, _ := study.ResultsFromStore(store)
			if res.Table4().String() == "" {
				b.Fatal("empty table")
			}
		}
	})
}
