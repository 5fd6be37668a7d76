package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
)

// TestReplicaCatchUpFromReleasedLog: a fresh replica of a coordinator whose
// store has released most of its history from memory catches up from the
// shard logs — in feed-sized chunks, one of them straddling each base —
// and converges on the coordinator's store event for event.
func TestReplicaCatchUpFromReleasedLog(t *testing.T) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(from, n int) []ids.Event {
		out := make([]ids.Event, n)
		for i := range out {
			k := from + i
			out[i] = ids.Event{
				Time: base.Add(time.Duration(k) * time.Second), SID: 1 + k%7,
				CVE: fmt.Sprintf("2099-%d", k%40), Msg: fmt.Sprintf("rule message %d", k%13),
			}
		}
		return out
	}
	const n = 3 * 4 * feedBatchEvents
	feed, coord := openFeed(t, mk(0, n))
	defer feed.Close()
	parts := coord.CommittedEvents()
	counts := make([]int64, len(parts))
	for i, p := range parts {
		counts[i] = int64(p.Len() * 7 / 10)
	}
	if err := coord.Release(counts); err != nil {
		t.Fatal(err)
	}
	// A resident tail on top of the released history, partly uncommitted.
	if err := coord.AppendBatch(mk(n, 500)); err != nil {
		t.Fatal(err)
	}
	if err := coord.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := coord.AppendBatch(mk(n+500, 20)); err != nil {
		t.Fatal(err)
	}
	total := n + 520

	repStore, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repStore.Close()
	rep, err := Start(Config{Addr: feed.Addr(), Store: repStore, ID: "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "catch-up", func() bool {
		st := rep.Status()
		return st.LocalEvents == uint64(total) && st.LagEvents == 0
	})
	rep.Close()
	if got := coord.Resident(); got >= total-n*6/10 {
		t.Fatalf("coordinator holds %d of %d events; the release did not hold", got, total)
	}
	want, got := committedShards(t, coord), committedShards(t, repStore)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the replica's shards differ from the coordinator's")
	}
	if !reflect.DeepEqual(mustSnapshot(t, repStore).Events(), mustSnapshot(t, coord).Events()) {
		t.Fatal("the replica's snapshot differs from the coordinator's")
	}
	if st, _ := replicaStatus(feed, "fresh"); st.EventsSent != uint64(total) {
		t.Fatalf("feed sent %d events for %d", st.EventsSent, total)
	}
}

// mustSnapshot returns st's snapshot, failing the test if it cannot be read.
func mustSnapshot(t testing.TB, st *eventstore.Store) *eventstore.Snapshot {
	t.Helper()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}
