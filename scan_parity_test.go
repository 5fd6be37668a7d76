// Study-level parity for the parallel capture front-end: the flow-sharded
// scan must reproduce the serial scan byte for byte on the study's own
// workload — events, stats, and the rendered Table 4 — for every shard
// count, on both a single capture and rotated multi-segment captures.
package repro

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/telescope"
	"repro/wayback"
)

// studyCapture writes the seed's full study capture to pcap bytes — the
// exact bytes Study.Run produces on the UsePcap path.
func studyCapture(t testing.TB, seed int64, scale int) []byte {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := telescope.NewSim(telescope.SimConfig{Seed: seed}).WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardedScanStudyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full study captures in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const scale = 120
			capture := studyCapture(t, seed, scale)
			study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}

			r, err := pcapio.NewReader(bytes.NewReader(capture))
			if err != nil {
				t.Fatal(err)
			}
			wantEvents, wantStats, err := ids.ScanCapture(r, study.Engine())
			if err != nil {
				t.Fatal(err)
			}
			if len(wantEvents) == 0 {
				t.Fatal("study capture produced no events")
			}

			// Table 4 from the full study at each shard width must render to
			// identical bytes; its events/stats must equal the serial scan.
			var wantTable string
			for _, shards := range []int{1, 3, 8} {
				s, err := wayback.NewStudy(wayback.Config{
					Seed: seed, Scale: scale, UsePcap: true,
					PipelineTimelines: true, ReasmShards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Events, wantEvents) {
					t.Fatalf("shards=%d: events differ from serial scan", shards)
				}
				if res.Stats != wantStats {
					t.Fatalf("shards=%d: stats %+v, want %+v", shards, res.Stats, wantStats)
				}
				table := res.Table4().String()
				if wantTable == "" {
					wantTable = table
				} else if table != wantTable {
					t.Fatalf("shards=%d: Table 4 bytes differ:\n%s\nvs\n%s", shards, table, wantTable)
				}
			}
		})
	}
}

// TestShardedScanSegmentsStudyParity rotates the study capture into small
// segments and fans one decoder out per segment — the waybackctl replay
// path — checking against the serial multi-file scan.
func TestShardedScanSegmentsStudyParity(t *testing.T) {
	const seed, scale = 2, 120
	bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	sessions := telescope.NewSim(telescope.SimConfig{Seed: seed}).Sessions(bps)
	rw, err := pcapio.NewRotatingWriter(t.TempDir(), "parity", pcapio.LinkTypeEthernet, 128<<10,
		pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := telescope.SessionsToPcap(sessions, rw, seed); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	files := rw.Files()
	if len(files) < 3 {
		t.Fatalf("capture fit in %d segment(s); fan-out untested", len(files))
	}
	study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}

	serial, err := pcapio.OpenFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	wantEvents, wantStats, err := ids.ScanCapture(serial, study.Engine())
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEvents) == 0 {
		t.Fatal("no events")
	}

	srcs := make([]pcapio.PacketSource, len(files))
	for i, f := range files {
		src, err := pcapio.OpenFiles(f)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		srcs[i] = src
	}
	events, stats, err := ids.ScanCaptureSharded(srcs, study.Engine(), ids.ScanConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats != wantStats {
		t.Fatalf("stats %+v, want %+v", stats, wantStats)
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatal("segment fan-out events differ from serial multi-file scan")
	}
}

// BenchmarkScanCapture is the front-end throughput headline: the same study
// capture through the serial scan, the sharded scan, the streamed scan and a
// four-segment fan-out. SetBytes reports capture MB/s.
func BenchmarkScanCapture(b *testing.B) {
	const seed, scale = 1, 60
	capture := studyCapture(b, seed, scale)
	study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	engine := study.Engine()

	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(capture)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := pcapio.NewReader(bytes.NewReader(capture))
			if err != nil {
				b.Fatal(err)
			}
			events, _, err := ids.ScanCapture(r, engine)
			if err != nil {
				b.Fatal(err)
			}
			if len(events) == 0 {
				b.Fatal("no events")
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.SetBytes(int64(len(capture)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := pcapio.NewReader(bytes.NewReader(capture))
			if err != nil {
				b.Fatal(err)
			}
			events, _, err := ids.ScanCaptureSharded([]pcapio.PacketSource{r}, engine, ids.ScanConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if len(events) == 0 {
				b.Fatal("no events")
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		r, err := pcapio.NewReader(bytes.NewReader(capture))
		if err != nil {
			b.Fatal(err)
		}
		_, want, err := ids.ScanCapture(r, engine)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(capture)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := pcapio.NewReader(bytes.NewReader(capture))
			if err != nil {
				b.Fatal(err)
			}
			stats, err := ids.ScanCaptureStreamed([]pcapio.PacketSource{r}, engine, ids.ScanConfig{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if stats.MatchedEvents != want.MatchedEvents {
				b.Fatalf("streamed scan matched %d events, serial %d", stats.MatchedEvents, want.MatchedEvents)
			}
		}
	})
	b.Run("segments4", func(b *testing.B) {
		// Split the capture into four time-ordered segment files once.
		bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		sessions := telescope.NewSim(telescope.SimConfig{Seed: seed}).Sessions(bps)
		rw, err := pcapio.NewRotatingWriter(b.TempDir(), "bench", pcapio.LinkTypeEthernet,
			int64(len(capture)/4), pcapio.WithNanoPrecision())
		if err != nil {
			b.Fatal(err)
		}
		if err := telescope.SessionsToPcap(sessions, rw, seed); err != nil {
			b.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			b.Fatal(err)
		}
		files := rw.Files()
		b.SetBytes(int64(len(capture)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srcs := make([]pcapio.PacketSource, len(files))
			closers := make([]*pcapio.MultiSource, len(files))
			for j, f := range files {
				src, err := pcapio.OpenFiles(f)
				if err != nil {
					b.Fatal(err)
				}
				srcs[j] = src
				closers[j] = src
			}
			events, _, err := ids.ScanCaptureSharded(srcs, engine, ids.ScanConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range closers {
				c.Close()
			}
			if len(events) == 0 {
				b.Fatal("no events")
			}
		}
	})
}
