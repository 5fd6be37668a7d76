package replica

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
)

// TestReplicaNamesBounded: a coordinator log carrying far more distinct CVE
// and message strings than fleet.MaxNames leaves the replica's names table
// at or below the bound, and the replica's store still holds exactly the
// coordinator's events.
func TestReplicaNamesBounded(t *testing.T) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	events := make([]ids.Event, 3*fleet.MaxNames)
	for i := range events {
		events[i] = ids.Event{
			Time: base.Add(time.Duration(i) * time.Second), SID: 1 + i%7,
			CVE: fmt.Sprintf("2099-%d", i), Msg: fmt.Sprintf("rule message %d", i),
		}
	}
	feed, coord := openFeed(t, events)
	defer feed.Close()
	repStore, err := eventstore.Open(t.TempDir(), eventstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer repStore.Close()
	rep, err := Start(Config{Addr: feed.Addr(), Store: repStore, ID: "wide"})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "catch-up", func() bool {
		st := rep.Status()
		return st.Rounds > 0 && st.LocalEvents == uint64(len(events)) && st.LagEvents == 0
	})
	rep.Close() // the tail loop has exited
	if n := len(rep.names); n > fleet.MaxNames {
		t.Errorf("replica holds %d names, bound %d", n, fleet.MaxNames)
	}
	want, got := committedShards(t, coord), committedShards(t, repStore)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("shard %d: replica holds %d events, coordinator %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("shard %d event %d: replica holds %+v, coordinator %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// committedShards reads every committed event of st, shard by shard, through
// the store's ranged read (released history included).
func committedShards(t *testing.T, st *eventstore.Store) [][]ids.Event {
	t.Helper()
	parts := st.CommittedEvents()
	out := make([][]ids.Event, len(parts))
	for i, p := range parts {
		err := st.ReadRange(i, 0, p.Len(), func(ev *ids.Event) error {
			out[i] = append(out[i], *ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}
