// End-to-end streaming benchmark: the zero-materialization pipeline at paper
// scale, timed serial vs sharded. This is the bench behind BENCH_e2e.json and
// CI's benchsmoke-mc job, which gates the sharded-over-serial speedup on a
// multi-core runner (see .github/workflows/ci.yml).
//
//	go test -run xxx -bench BenchmarkStreamStudy -benchtime 1x .
//
// Each sub-benchmark reports events/s (attributed exploit events over wall
// time for one full study) and gomaxprocs (the core count it actually ran
// at — the serial case pins itself to one core regardless of the runner), so
// benchsmoke can refuse to compare runs from differently-sized machines.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/wayback"
)

// streamStudyCase is one BenchmarkStreamStudy variant.
type streamStudyCase struct {
	name  string
	cfg   wayback.Config
	procs int // GOMAXPROCS override for the run; 0 keeps the runner's
}

func streamStudyCases() []streamStudyCase {
	return []streamStudyCase{
		// serial: every stage width forced to 1 AND one OS core — the honest
		// single-threaded baseline the speedup gate divides by. One segment
		// is one reassembler; ReasmShards pins the pcap path's width too.
		{name: "serial",
			cfg:   wayback.Config{Seed: 1, Scale: 1, StreamSegments: 1, ReasmShards: 1, MatchWorkers: 1},
			procs: 1},
		// sharded: host defaults — min(8, GOMAXPROCS) segments, each
		// reassembled on its own goroutine, and GOMAXPROCS match workers.
		{name: "sharded", cfg: wayback.Config{Seed: 1, Scale: 1}},
		// stress: 10x the paper's event volume, host defaults. Exists to
		// prove constant-memory streaming holds past paper scale, and to
		// give capacity planning a number.
		{name: "stress", cfg: wayback.Config{Seed: 1, Scale: 1, Boost: 10}},
	}
}

// BenchmarkStreamStudy runs the full streaming study — lazy generation,
// virtual segments, segment-local reassembly, matching — at paper scale
// (Scale 1 ≈ 115 k exploit events) and reports attributed events/s.
func BenchmarkStreamStudy(b *testing.B) {
	for _, tc := range streamStudyCases() {
		b.Run(tc.name, func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			if tc.procs > 0 {
				prev := runtime.GOMAXPROCS(tc.procs)
				defer runtime.GOMAXPROCS(prev)
				procs = tc.procs
			}
			cfg := tc.cfg
			cfg.Streaming = true
			var events int64
			for i := 0; i < b.N; i++ {
				study, err := wayback.NewStudy(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = 0
				res, err := study.RunStream(func(evs []ids.Event) error {
					events += int64(len(evs))
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.DistinctCVEs != 63 {
					b.Fatalf("distinct CVEs = %d, want 63", res.Stats.DistinctCVEs)
				}
				if int64(res.Stats.MatchedEvents) != events {
					b.Fatalf("sink saw %d events, stats say %d", events, res.Stats.MatchedEvents)
				}
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(events)/perOp, "events/s")
			b.ReportMetric(float64(procs), "gomaxprocs")
		})
	}
}
