package timeline

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
	"repro/internal/packet"
)

// fuzzSeedEvents builds a small deterministic event batch for seed corpora:
// time-sorted, a few shared CVEs so the CVE index and bloom have structure.
func fuzzSeedEvents(n int) []ids.Event {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]ids.Event, n)
	for i := range evs {
		evs[i] = ids.Event{
			Time:      base.Add(time.Duration(i) * time.Hour),
			Src:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), Port: uint16(40000 + i)},
			Dst:       packet.Endpoint{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1}), Port: 443},
			SID:       2000 + i,
			Published: base.AddDate(0, 0, -3),
			CVE:       fmt.Sprintf("2021-%d", 44000+i%3),
			Msg:       "fuzz seed event",
			Bytes:     512 + i,
		}
	}
	return evs
}

func fuzzSegmentSeeds(tb testing.TB) [][]byte {
	evs := fuzzSeedEvents(10)
	valid := encodeSegment(0, []int64{6, 4}, evs)
	single := encodeSegment(3, []int64{1}, evs[:1])
	torn := append([]byte(nil), valid[:len(valid)-5]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	return [][]byte{valid, single, torn, flipped, badMagic, {}, segMagic[:]}
}

func fuzzCheckpointSeeds(tb testing.TB) [][]byte {
	agg := NewAggregate()
	agg.Add(fuzzSeedEvents(10), nil)
	cut := time.Date(2022, 1, 1, 9, 0, 0, 0, time.UTC)
	valid := encodeCheckpoint(2, 3, cut, cut.Add(time.Minute), agg)
	empty := encodeCheckpoint(0, 0, time.Time{}, cut, NewAggregate())
	torn := append([]byte(nil), valid[:len(valid)-7]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x08
	badMagic := append([]byte(nil), valid...)
	badMagic[3] ^= 0xff
	return [][]byte{valid, empty, torn, flipped, badMagic, {}, ckptMagic[:]}
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from
// the same seed lists the fuzz targets f.Add. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzSegment", fuzzSegmentSeeds(t))
	fuzzcorpus.Write(t, "FuzzCheckpoint", fuzzCheckpointSeeds(t))
}

// FuzzSegment hammers the sealed-segment decoder — the only timeline file
// whose contents drive index-guided seeks back into the same bytes. The
// parser must never panic, and anything it accepts must be internally
// consistent: a full-range scan yields exactly the header's declared event
// count, every event inside [MinTime, MaxTime], and a CVE-index scan never
// exceeds the full scan.
func FuzzSegment(f *testing.F) {
	for _, seed := range fuzzSegmentSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseSegment("fuzz.seg", data)
		if err != nil {
			return
		}
		fs := fault.NewSimFS(1, fault.Profile{})
		if err := fs.WriteFile("fuzz.seg", data, 0o644); err != nil {
			t.Fatal(err)
		}
		hi := m.MaxTime.Add(time.Hour)
		n := 0
		err = m.scanRange(fs, nil, false, time.Time{}, hi, func(ev *ids.Event) error {
			if m.Count > 0 && (ev.Time.Before(m.MinTime) || ev.Time.After(m.MaxTime)) {
				t.Fatalf("scan emitted an event at %v outside the header's [%v, %v]",
					ev.Time, m.MinTime, m.MaxTime)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("parse accepted the segment but a full scan failed: %v", err)
		}
		if n != m.Count {
			t.Fatalf("full scan saw %d events, header declared %d", n, m.Count)
		}
		nCVE := 0
		err = m.scanCVE(fs, nil, "2021-44000", hi, func(*ids.Event) error {
			nCVE++
			return nil
		})
		if err != nil {
			t.Fatalf("parse accepted the segment but a CVE scan failed: %v", err)
		}
		if nCVE > n {
			t.Fatalf("CVE scan saw %d events, more than the full scan's %d", nCVE, n)
		}
	})
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint decoder. The engine
// treats an unparseable checkpoint as absent (fall back to an older one), so
// the only hard requirements are: never panic, and anything accepted must
// re-encode and re-parse to the same metadata and event count — a checkpoint
// that survives one recovery must survive every later one.
func FuzzCheckpoint(f *testing.F) {
	for _, seed := range fuzzCheckpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, agg, err := parseCheckpoint("fuzz.ck", data)
		if err != nil {
			return
		}
		if meta.K < 0 {
			t.Fatalf("accepted a checkpoint with no header (K=%d)", meta.K)
		}
		if agg == nil || agg.Stats == nil || agg.Life == nil {
			t.Fatal("accepted a checkpoint without both aggregate frames")
		}
		re := encodeCheckpoint(meta.Seq, meta.K, meta.Cut, meta.WrittenAt, agg)
		meta2, agg2, err := parseCheckpoint("fuzz2.ck", re)
		if err != nil {
			t.Fatalf("accepted checkpoint did not survive re-encode: %v", err)
		}
		if meta2.Seq != meta.Seq || meta2.K != meta.K || !meta2.Cut.Equal(meta.Cut) {
			t.Fatalf("re-encoded metadata drifted: %+v vs %+v", meta2, meta)
		}
		if agg2.EventCount() != agg.EventCount() {
			t.Fatalf("re-encoded aggregate drifted: %d events vs %d",
				agg2.EventCount(), agg.EventCount())
		}
	})
}
