package eventstore

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
)

func testEvent(i int) ids.Event {
	ev := ids.Event{
		Time:      time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		Src:       packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("203.0.113.%d", 1+i%250)), Port: uint16(40000 + i%1000)},
		Dst:       packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 443},
		SID:       58722 + i%7,
		Published: time.Date(2021, 12, 10, 12, 0, 0, 123456789, time.UTC),
		Msg:       "SERVER-OTHER Apache Log4j logging remote code execution attempt",
		Bytes:     512 + i,
	}
	if i%5 != 4 { // every fifth event is CVE-less (rule without reference)
		ev.CVE = fmt.Sprintf("2021-%d", 44220+i%9)
	}
	return ev
}

func eventsEqual(a, b ids.Event) bool {
	return a.Time.Equal(b.Time) && a.Src == b.Src && a.Dst == b.Dst &&
		a.SID == b.SID && a.Published.Equal(b.Published) &&
		a.CVE == b.CVE && a.Msg == b.Msg && a.Bytes == b.Bytes
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []ids.Event{
		testEvent(0),
		{}, // zero event: zero times and invalid addrs must survive
		{
			Time:      time.Unix(0, 1).UTC(),
			Src:       packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::1"), Port: 65535},
			Dst:       packet.Endpoint{Addr: packet.MustAddr("0.0.0.0")},
			Published: time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC), // never-published sentinel
			CVE:       "2022-26134",
			Msg:       "msg with\nnewline and \x00 byte",
			Bytes:     1 << 20,
		},
	}
	for i, ev := range cases {
		payload := EncodeEvent(nil, &ev)
		got, err := DecodeEvent(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !eventsEqual(got, ev) {
			t.Fatalf("case %d round trip:\n got %+v\nwant %+v", i, got, ev)
		}
	}
}

func TestDecodeEventRejectsGarbage(t *testing.T) {
	if n := len(EncodeEvent(nil, &ids.Event{})); n != MinEventLen {
		t.Fatalf("smallest event encodes to %d bytes, MinEventLen is %d", n, MinEventLen)
	}
	payload := EncodeEvent(nil, &ids.Event{CVE: "2021-44228", Msg: "m"})
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeEvent(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeEvent(append(payload, 0xff)); err == nil {
		t.Fatal("stray trailing byte accepted")
	}
}

func TestStoreAppendReopenQuery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var want []ids.Event
	for i := 0; i < n; i++ {
		want = append(want, testEvent(i))
	}
	// Append in mixed batch sizes.
	if err := st.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(want[1:60]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(want[60:]); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, stage string) {
		t.Helper()
		sn := mustSnapshot(t, st)
		if sn.Len() != n {
			t.Fatalf("%s: %d events, want %d", stage, sn.Len(), n)
		}
		got := sn.Events()
		for i := range got {
			// Events were generated in time order, so the merged snapshot
			// must come back in exactly generation order.
			if !eventsEqual(got[i], want[i]) {
				t.Fatalf("%s: event %d:\n got %+v\nwant %+v", stage, i, got[i], want[i])
			}
		}
	}
	check(st, "before close")
	gen := st.Generation()
	if gen == 0 {
		t.Fatal("generation stayed zero after appends")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after reopen")
	if st2.SizeBytes() == 0 || st2.Len() != n {
		t.Fatalf("reopened store: %d bytes, %d events", st2.SizeBytes(), st2.Len())
	}
}

func TestStoreShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Open(dir, Options{Shards: 5}); err == nil {
		t.Fatal("shard count mismatch accepted")
	}
}

// TestStoreCrashRecovery simulates torn appends: extra garbage, a partial
// frame, and a corrupted CRC at the tail of shard files. Open must recover
// every intact record and truncate the rest.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []ids.Event
	for i := 0; i < 40; i++ {
		want = append(want, testEvent(i))
	}
	if err := st.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0: torn mid-frame (crash during write).
	corrupt(shardName(0), func(b []byte) []byte { return b[:len(b)-13] })
	// Shard 1: garbage appended after the valid log.
	corrupt(shardName(1), func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) })

	st2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sn := mustSnapshot(t, st2)
	// Shard 0 lost exactly its final record; shard 1 lost nothing.
	if sn.Len() != len(want)-1 {
		t.Fatalf("recovered %d events, want %d", sn.Len(), len(want)-1)
	}
	// Every recovered event is one we wrote, uncorrupted.
	valid := make(map[string]bool, len(want))
	for i := range want {
		valid[fmt.Sprintf("%v/%s/%d", want[i].Time, want[i].CVE, want[i].Bytes)] = true
	}
	for _, ev := range sn.Events() {
		if !valid[fmt.Sprintf("%v/%s/%d", ev.Time, ev.CVE, ev.Bytes)] {
			t.Fatalf("recovered event was never written: %+v", ev)
		}
	}
	// Appending after recovery works and reopens cleanly.
	if err := st2.Append(testEvent(1000)); err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, st2).Len(); got != len(want) {
		t.Fatalf("after post-recovery append: %d events", got)
	}
}

// TestStoreConcurrentAppendSnapshot hammers appends from several goroutines
// while readers take snapshots — run under -race this is the lock-free
// reader guarantee.
func TestStoreConcurrentAppendSnapshot(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				batch := []ids.Event{testEvent(w*1000 + i), testEvent(w*1000 + i + 500)}
				if err := st.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			var lastLen int
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn, err := st.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				if sn.Generation() < lastGen {
					t.Error("generation went backwards")
					return
				}
				if sn.Generation() == lastGen && sn.Len() != lastLen {
					t.Errorf("same generation %d with %d then %d events", lastGen, lastLen, sn.Len())
					return
				}
				lastGen, lastLen = sn.Generation(), sn.Len()
				evs := sn.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Time.Before(evs[i-1].Time) {
						t.Error("snapshot not time-ordered")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := mustSnapshot(t, st).Len(); got != writers*perWriter*2 {
		t.Fatalf("final count %d, want %d", got, writers*perWriter*2)
	}
}

// TestSnapshotFollowsGeneration: a snapshot is the store at one generation.
// Snapshots of an unchanged store agree; an append moves the generation,
// and a snapshot taken before it keeps its own events.
func TestSnapshotFollowsGeneration(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(testEvent(1)); err != nil {
		t.Fatal(err)
	}
	a := mustSnapshot(t, st)
	b := mustSnapshot(t, st)
	if a.Generation() != b.Generation() || a.Len() != b.Len() {
		t.Fatalf("unchanged store: snapshots at generation %d (%d events) and %d (%d events)",
			a.Generation(), a.Len(), b.Generation(), b.Len())
	}
	if err := st.Append(testEvent(2)); err != nil {
		t.Fatal(err)
	}
	c := mustSnapshot(t, st)
	if c.Generation() <= a.Generation() {
		t.Fatalf("generation %d after an append, %d before", c.Generation(), a.Generation())
	}
	if a.Len() != 1 || c.Len() != 2 {
		t.Fatalf("snapshot lens %d, %d", a.Len(), c.Len())
	}
}

func TestShardStatsAndLastAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.LastAppend().IsZero() {
		t.Fatal("empty store claims a last append")
	}
	for _, sh := range st.ShardStats() {
		if sh.Records != 0 || !sh.LastAppend.IsZero() {
			t.Fatalf("empty store shard stats %+v", sh)
		}
	}

	var want []ids.Event
	for i := 0; i < 200; i++ {
		want = append(want, testEvent(i))
	}
	before := time.Now()
	if err := st.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	stats := st.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("%d shard stats, want 4", len(stats))
	}
	var records int
	var size int64
	for i, sh := range stats {
		if sh.Shard != i {
			t.Fatalf("shard %d reported as %d", i, sh.Shard)
		}
		records += sh.Records
		size += sh.SizeBytes
		if sh.Records > 0 && sh.LastAppend.Before(before) {
			t.Fatalf("shard %d last append %v predates the append", i, sh.LastAppend)
		}
	}
	if records != len(want) {
		t.Fatalf("shard records sum to %d, want %d", records, len(want))
	}
	if size != st.SizeBytes() {
		t.Fatalf("shard bytes sum to %d, store says %d", size, st.SizeBytes())
	}
	if la := st.LastAppend(); la.Before(before) || time.Since(la) > time.Minute {
		t.Fatalf("store LastAppend %v", la)
	}

	// Reopen: counts and sizes recover from disk; append recency does not
	// survive a restart (it is process liveness, not history).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var recovered int
	for _, sh := range st.ShardStats() {
		recovered += sh.Records
	}
	if recovered != len(want) {
		t.Fatalf("recovered shard records sum to %d, want %d", recovered, len(want))
	}
	if !st.LastAppend().IsZero() {
		t.Fatal("reopened store claims in-process append recency")
	}
}

// BenchmarkAppendBatch measures store append throughput (events/sec) at the
// ingest pipeline's default batch size. The baseline lives in
// BENCH_fleet.json.
func BenchmarkAppendBatch(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := make([]ids.Event, 256)
	for i := range batch {
		batch[i] = testEvent(i)
	}
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "events/s")
}

// mustSnapshot returns st's snapshot, failing the test if it cannot be read.
func mustSnapshot(t testing.TB, st *Store) *Snapshot {
	t.Helper()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}
