package eventstore

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCompatStoreOpens: a store written by the commit before internal/wal
// existed (fixtures under internal/wal/testdata/compat) opens under wal.Log
// with every event, amendment and the newest commit meta.
func TestCompatStoreOpens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"SHARDS", "events-00.log", "COMMITS.log", "amend.log"} {
		b, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "compat", "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 6 || len(st.Amendments()) != 2 || string(st.CommitMeta()) != "compat-meta-2" {
		t.Fatalf("recovered %d events, %d amendments, meta %q; want 6, 2, %q",
			st.Len(), len(st.Amendments()), st.CommitMeta(), "compat-meta-2")
	}
	if got := mustSnapshot(t, st).Events()[0]; !eventsEqual(got, amendFor(testEvent(0), 900001, got.Published, "2020-0001", 1).Event) {
		t.Fatalf("first resolved event %+v is not testEvent(0) under its amendment", got)
	}
}
