package timeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/packet"
)

// tiedEvents returns n events drawn from a deliberately tiny key space, so
// that many share their time and SID exactly — with different or identical
// source endpoints — and land in different shards (the store routes by CVE).
// Times and publication stamps carry a mix of Locations and sub-second
// parts; Msg and Bytes are unique per event, so a reordering of tied events
// shows in the segment bytes.
func tiedEvents(rng *rand.Rand, n int, serial *int) []ids.Event {
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	locs := []*time.Location{time.UTC, time.FixedZone("east", 5*3600), time.FixedZone("west", -3*3600+1800)}
	srcs := []packet.Endpoint{
		{Addr: netip.AddrFrom4([4]byte{198, 51, 100, 7}), Port: 40000},
		{Addr: netip.AddrFrom4([4]byte{198, 51, 100, 7}), Port: 40001},
		{Addr: netip.MustParseAddr("2001:db8::9"), Port: 40000},
	}
	cves := []string{"", "2021-44228", "2022-26134", "2021-26084", "2022-1388"}
	evs := make([]ids.Event, n)
	for i := range evs {
		*serial++
		at := base.Add(time.Duration(rng.Intn(6))*time.Hour + time.Duration(rng.Intn(2))*time.Nanosecond)
		pub := base.AddDate(0, 0, -rng.Intn(3))
		evs[i] = ids.Event{
			Time:      at.In(locs[rng.Intn(len(locs))]),
			Src:       srcs[rng.Intn(len(srcs))],
			Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(4))}), Port: 443},
			SID:       9000 + rng.Intn(3),
			Published: pub.In(locs[rng.Intn(len(locs))]),
			CVE:       cves[rng.Intn(len(cves))],
			Msg:       fmt.Sprintf("event %d", *serial),
			Bytes:     *serial,
		}
	}
	return evs
}

// TestSealParity checks Seal against the computation it replaced: gather
// the committed-but-unsealed events of every shard in shard order, sort them
// stably with SortEvents, encode them. The segment files must be byte-for-
// byte that encoding, and every checkpoint's aggregate — the one cached for
// later builds and queries — must equal a fold of the sealed files read back
// from disk, with the file holding exactly that aggregate's encoding. It
// covers one checkpoint per segment (folded from memory), one per three
// (read back), and a checkpoint write that fails once and is retried.
func TestSealParity(t *testing.T) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("checkpoint-every=%d", every), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(every)))
			fs := fault.NewSimFS(int64(every), fault.Profile{})
			st, err := eventstore.Open("store", eventstore.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// SID 9000 has a study publication date; the others fall back to
			// each event's own Published stamp, Location and all.
			rulePub := map[int]time.Time{9000: time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)}
			eng, err := Open(Config{Dir: "tl", FS: fs, Store: st, RulePub: rulePub, CheckpointEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			const failRound = 4
			serial := 0
			for round := 0; round < 9; round++ {
				for b := rng.Intn(3); b >= 0; b-- {
					if err := st.AppendBatch(tiedEvents(rng, 40+rng.Intn(160), &serial)); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Commit(nil); err != nil {
					t.Fatal(err)
				}
				// Published but not committed: never sealed this round.
				if err := st.AppendBatch(tiedEvents(rng, 1+rng.Intn(20), &serial)); err != nil {
					t.Fatal(err)
				}

				from := eng.sealed
				committed := st.CommittedEvents()
				var concat []ids.Event
				counts := make([]int64, len(committed))
				for i, shard := range committed {
					k := 0
					if from != nil {
						k = int(from[i])
					}
					unsealed, err := shard.Tail(k)
					if err != nil {
						t.Fatal(err)
					}
					concat = append(concat, unsealed...)
					counts[i] = int64(shard.Len())
				}
				eventstore.SortEvents(concat)
				seq := uint64(len(eng.segments))
				ckpts := len(eng.checkpoints)

				if every == 1 && round == failRound {
					fs.FailWith(func(op, name string) error {
						if op == "write" && strings.Contains(name, "ckpt-") {
							return fmt.Errorf("injected ENOSPC")
						}
						return nil
					})
				}
				sealed, err := eng.Seal()
				fs.FailWith(nil)
				if !sealed {
					t.Fatalf("round %d: nothing sealed (err %v)", round, err)
				}
				if every == 1 && round == failRound {
					if err == nil || len(eng.checkpoints) != ckpts {
						t.Fatalf("round %d: the failed checkpoint write reported %v with %d checkpoints, want an error and %d", round, err, len(eng.checkpoints), ckpts)
					}
					continue
				} else if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}

				got, err := fs.ReadFile("tl/" + segmentName(seq))
				if err != nil {
					t.Fatal(err)
				}
				if want := encodeSegment(seq, counts, concat); !bytes.Equal(got, want) {
					t.Fatalf("round %d: segment %d differs from encodeSegment over SortEvents of the unsealed events", round, seq)
				}

				if len(eng.checkpoints) == ckpts {
					continue // not due this round
				}
				meta := eng.checkpoints[len(eng.checkpoints)-1]
				cached := eng.aggCache[meta.Seq]
				if cached == nil {
					t.Fatalf("round %d: checkpoint %d has no cached aggregate", round, meta.Seq)
				}
				disk := NewAggregate()
				err = (&snapshot{segs: eng.segments[:meta.K]}).fold(fs, held{}, meta.Cut, func(ev *ids.Event) error {
					disk.AddOne(ev, rulePub)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cached, disk) {
					t.Fatalf("round %d: checkpoint %d's cached aggregate differs from a fold of the segments on disk", round, meta.Seq)
				}
				file, err := fs.ReadFile(meta.path)
				if err != nil {
					t.Fatal(err)
				}
				if want := encodeCheckpoint(meta.Seq, meta.K, meta.Cut, meta.WrittenAt, disk); !bytes.Equal(file, want) {
					t.Fatalf("round %d: checkpoint %d's file differs from the encoding of the from-disk fold", round, meta.Seq)
				}
			}
			if every == 1 && len(eng.checkpoints) != len(eng.segments)-1 {
				t.Fatalf("%d checkpoints over %d segments; want one per segment but the failed one", len(eng.checkpoints), len(eng.segments))
			}
		})
	}
}
