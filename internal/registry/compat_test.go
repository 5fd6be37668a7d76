package registry

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCompatRegistryOpens: a ruleset journal and a digest log written before
// the logs moved onto wal.Log open under it with every record.
func TestCompatRegistryOpens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ruleset.journal", "digests.log"} {
		b, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "compat", "registry", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != 2 || r.NumRules() != 2 || r.DigestCount() != 4 {
		t.Fatalf("recovered generation %d, %d rules, %d digests; want 2, 2, 4",
			r.Generation(), r.NumRules(), r.DigestCount())
	}
	n := 0
	if err := r.digests.walk(func(Digest) error { n++; return nil }); err != nil || n != 4 {
		t.Fatalf("walked %d digests (err %v), want 4", n, err)
	}
}
