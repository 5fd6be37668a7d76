package timeline_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/timeline"
)

// BenchmarkAsOf measures a time-travel query at the head of a fully sealed
// log, checkpointed (one checkpoint per segment, so a query replays only the
// tail) versus cold (no checkpoints: every query replays every segment).
// The acceptance gate is checkpointed >= 10x faster than cold replay; the
// recorded baselines live in BENCH_analysis.json.
func BenchmarkAsOf(b *testing.B) {
	_, batch := studyFixture(b)
	events := batch.Events
	cut := lastEventTime(events).Add(time.Hour)

	for _, mode := range []struct {
		name string
		ckpt int
	}{
		{"checkpointed", 1},
		{"cold", -1},
	} {
		st, eng := sealedFixture(b, events, mode.ckpt)
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := eng.AsOf(cut)
				if err != nil {
					b.Fatal(err)
				}
				if v.EventCount() != len(events) {
					b.Fatalf("as-of view holds %d events, want %d", v.EventCount(), len(events))
				}
			}
		})
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkillSeries measures /v1/skill's work: a 30-day-step skill series
// over the whole study on the same checkpointed 16-segment log. The first
// point is an as-of view; every later one folds forward only its step's
// events, so the series costs about one replay plus a Table 4 evaluation per
// point.
func BenchmarkSkillSeries(b *testing.B) {
	_, batch := studyFixture(b)
	events := batch.Events
	st, eng := sealedFixture(b, events, 1)
	defer st.Close()
	from := events[0].Time
	for i := range events {
		if events[i].Time.Before(from) {
			from = events[i].Time
		}
	}
	const step = 30 * 24 * time.Hour
	to := from.Add((lastEventTime(events).Sub(from)/step + 1) * step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := eng.SkillSeries(from, to, step)
		if err != nil {
			b.Fatal(err)
		}
		if last := pts[len(pts)-1]; last.Events != len(events) {
			b.Fatalf("series ends at %d events, want %d", last.Events, len(events))
		}
	}
}

// BenchmarkSeal measures one seal with its checkpoint (CheckpointEvery 1):
// 16,384 committed events across the store's 4 shards, appended in arrival
// rather than time order, are ordered, encoded, written and folded into the
// checkpoint's aggregate. Each op seals a fresh store and timeline on a
// simulated filesystem, built and torn down with the timer stopped. Its
// ledger row gates allocs/op.
func BenchmarkSeal(b *testing.B) {
	events := sealBenchEvents(16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := fault.NewSimFS(1, fault.Profile{})
		st := openStore(b, fs)
		appendCommit(b, st, events)
		eng, err := timeline.Open(timeline.Config{Dir: "tl", FS: fs, Store: st})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if sealed, err := eng.Seal(); err != nil || !sealed {
			b.Fatalf("seal: sealed=%v err=%v", sealed, err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// sealBenchEvents returns n events shaped like the study's: two years of
// sessions in random order, 63 CVEs (one event in eight unattributed) under
// a few hundred rule SIDs and messages, a few thousand sources.
func sealBenchEvents(n int) []ids.Event {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	events := make([]ids.Event, n)
	for i := range events {
		sid := rng.Intn(300)
		ev := ids.Event{
			Time:      base.Add(time.Duration(rng.Int63n(int64(2 * 365 * 24 * time.Hour)))),
			Src:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{203, 0, byte(rng.Intn(16)), byte(rng.Intn(256))}), Port: uint16(1024 + rng.Intn(60000))},
			Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{18, 204, byte(rng.Intn(4)), byte(rng.Intn(256))}), Port: 443},
			SID:       50000 + sid,
			Published: base.AddDate(0, 0, sid),
			Msg:       fmt.Sprintf("SERVER-WEBAPP rule %d exploitation attempt", sid),
			Bytes:     200 + rng.Intn(2000),
		}
		if rng.Intn(8) != 0 {
			ev.CVE = fmt.Sprintf("2021-%d", 40000+sid%63)
		}
		events[i] = ev
	}
	return events
}

func lastEventTime(events []ids.Event) time.Time {
	var last time.Time
	for i := range events {
		if events[i].Time.After(last) {
			last = events[i].Time
		}
	}
	return last
}

// sealedFixture seals events into 16 segments on a simulated filesystem,
// checkpointing every ckpt segments (negative: never).
func sealedFixture(b *testing.B, events []ids.Event, ckpt int) (*eventstore.Store, *timeline.Engine) {
	study, _ := studyFixture(b)
	fs := fault.NewSimFS(1, fault.Profile{})
	st := openStore(b, fs)
	eng, err := study.OpenTimeline("tl", st, timeline.Config{FS: fs, CheckpointEvery: ckpt})
	if err != nil {
		b.Fatal(err)
	}
	const chunks = 16
	per := (len(events) + chunks - 1) / chunks
	for i := 0; i < len(events); i += per {
		end := min(i+per, len(events))
		appendCommit(b, st, events[i:end])
		if _, err := eng.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	return st, eng
}
