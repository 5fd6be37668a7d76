package ingest

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/registry"
)

// BenchmarkPipelineIngest times one pipeline over a pre-written rotated
// capture, from Start through idle to Close, with a registry recording
// digests: the tailer, reassembly, the match stage, digest recording, store
// appends and the closing checkpoint. The registry and store are opened
// outside the timer.
func BenchmarkPipelineIngest(b *testing.B) {
	const n = 4096
	root := b.TempDir()
	capDir := filepath.Join(root, "capture")
	if err := os.Mkdir(capDir, 0o755); err != nil {
		b.Fatal(err)
	}
	writeSegments(b, capDir, "dscope", testSessions(n), 256<<10)
	base := datedTestRules(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(root, "run")
		if err != nil {
			b.Fatal(err)
		}
		reg, err := registry.Open(registry.Config{
			Dir: filepath.Join(dir, "rules"), Base: base,
			Engine: ids.Config{PortInsensitive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		store, err := eventstore.Open(filepath.Join(dir, "store"), eventstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		p, err := Start(Config{
			Dir: capDir, EngineSource: reg.Engine, Digests: reg, Store: store,
			PollInterval: time.Millisecond, FlushIdle: 5 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for !p.Metrics().Idle() {
			time.Sleep(time.Millisecond)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if got := p.Metrics().Sessions; got != n {
			b.Fatalf("ingested %d sessions, want %d", got, n)
		}
		store.Close()
		reg.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}
