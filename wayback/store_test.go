package wayback

import (
	"math/rand"
	"testing"
)

// TestResultsFromStoreMatchesRun proves the store path is analysis-
// equivalent to the batch path: events appended to an event store in
// arbitrary order yield byte-identical tables when read back.
func TestResultsFromStoreMatchesRun(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Events) == 0 {
		t.Fatal("batch run produced no events")
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Append in shuffled order: a streaming daemon's append order depends on
	// batching, so analysis equality must not depend on it.
	shuffled := append([]int(nil), make([]int, len(batch.Events))...)
	for i := range shuffled {
		shuffled[i] = i
	}
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for start := 0; start < len(shuffled); start += 97 {
		end := start + 97
		if end > len(shuffled) {
			end = len(shuffled)
		}
		var chunk []int = shuffled[start:end]
		evs := batch.Events[:0:0]
		for _, i := range chunk {
			evs = append(evs, batch.Events[i])
		}
		if err := store.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
	}

	res, err := study.ResultsFromStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if store.Generation() == 0 {
		t.Fatal("store generation did not move")
	}
	if len(res.Events) != len(batch.Events) {
		t.Fatalf("store returned %d events, batch had %d", len(res.Events), len(batch.Events))
	}
	for name, pair := range map[string][2]string{
		"Table4": {batch.Table4().String(), res.Table4().String()},
		"Table5": {batch.Table5().String(), res.Table5().String()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differs between batch run and store:\nbatch:\n%s\nstore:\n%s", name, pair[0], pair[1])
		}
	}
	if batch.MitigatedShare() != res.MitigatedShare() {
		t.Errorf("MitigatedShare: batch %v, store %v", batch.MitigatedShare(), res.MitigatedShare())
	}
	if res.Stats.MatchedEvents != len(res.Events) {
		t.Errorf("stats matched %d, events %d", res.Stats.MatchedEvents, len(res.Events))
	}
	if res.Stats.DistinctCVEs != batch.Stats.DistinctCVEs || res.Stats.DistinctSrcIPs != batch.Stats.DistinctSrcIPs {
		t.Errorf("distinct counts diverge: store %+v, batch %+v", res.Stats, batch.Stats)
	}
}
