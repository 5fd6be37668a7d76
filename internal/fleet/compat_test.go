package fleet

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCompatJournalsOpen: a watermark journal and a spool written before the
// logs moved onto wal.Log open under it with every record.
func TestCompatJournalsOpen(t *testing.T) {
	dir := t.TempDir()
	for _, rel := range []string{"store/FLEET-WATERMARKS.log", "sensor/spool.log"} {
		b, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "compat", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(rel)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := OpenWatermarks(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.All(); len(got) != 2 || got["sensor-a"] != 3 || got["sensor-b"] != 9 {
		t.Fatalf("recovered marks %v, want sensor-a=3 sensor-b=9", got)
	}
	sp, err := openSpool(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.Depth() != 3 || sp.LastSeq() != 3 {
		t.Fatalf("recovered %d batches through seq %d, want 3 through 3", sp.Depth(), sp.LastSeq())
	}
	if b, ok := sp.NextAfter(2); !ok || len(b.events()) != 4 {
		t.Fatalf("batch 3 holds %d events (ok=%v), want 4", len(b.events()), ok)
	}
}
