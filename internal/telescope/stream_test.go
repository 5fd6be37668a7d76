package telescope

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
)

// capWriter records every frame WritePcap emits.
type capWriter struct {
	ts     []time.Time
	frames [][]byte
}

func (c *capWriter) WritePacket(ts time.Time, data []byte) error {
	c.ts = append(c.ts, ts)
	c.frames = append(c.frames, append([]byte(nil), data...))
	return nil
}

func (c *capWriter) Flush() error { return nil }

func streamWorkload(t *testing.T, seed int64) []scanner.Blueprint {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: 4000, LegacyScans: 40})
	if err != nil {
		t.Fatal(err)
	}
	return bps
}

// drain reads a segment to EOF via NextInto, copying out each record.
func drain(t *testing.T, ss *StreamSource) ([]time.Time, [][]byte) {
	t.Helper()
	var (
		tss    []time.Time
		frames [][]byte
		p      pcapio.Packet
	)
	for {
		err := ss.NextInto(&p)
		if err == io.EOF {
			return tss, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.OrigLen != len(p.Data) {
			t.Fatalf("OrigLen %d != len(Data) %d", p.OrigLen, len(p.Data))
		}
		tss = append(tss, p.Timestamp)
		frames = append(frames, append([]byte(nil), p.Data...))
	}
}

// TestStreamSingleSegmentMatchesWritePcap: one segment must replay the exact
// frame-and-timestamp sequence of the materialized pcap writer.
func TestStreamSingleSegmentMatchesWritePcap(t *testing.T) {
	bps := streamWorkload(t, 3)
	tel := NewSim(SimConfig{Seed: 3})

	var want capWriter
	if err := tel.WritePcap(bps, &want); err != nil {
		t.Fatal(err)
	}

	st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: 1})
	defer st.Close()
	gotTS, gotFrames := drain(t, st.Segments()[0])

	if len(gotFrames) != len(want.frames) {
		t.Fatalf("streamed %d frames, pcap path wrote %d", len(gotFrames), len(want.frames))
	}
	for i := range gotFrames {
		if !gotTS[i].Equal(want.ts[i]) {
			t.Fatalf("frame %d: timestamp %v != %v", i, gotTS[i], want.ts[i])
		}
		if !bytes.Equal(gotFrames[i], want.frames[i]) {
			t.Fatalf("frame %d differs from pcap path", i)
		}
	}
}

// TestStreamSegmentsPartitionWithoutLoss: for any segment count the union of
// segments is the same frame multiset, each session's frames stay contiguous
// within one segment, and every session lands on its tcpasm.FlowShard.
func TestStreamSegmentsPartitionWithoutLoss(t *testing.T) {
	bps := streamWorkload(t, 5)
	tel := NewSim(SimConfig{Seed: 5})

	var want capWriter
	if err := tel.WritePcap(bps, &want); err != nil {
		t.Fatal(err)
	}
	wantCount := map[string]int{}
	for _, f := range want.frames {
		wantCount[string(f)]++
	}

	for _, segs := range []int{3, 8} {
		t.Run(fmt.Sprintf("segments%d", segs), func(t *testing.T) {
			st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: segs})
			defer st.Close()

			gotCount := map[string]int{}
			total := 0
			for si, ss := range st.Segments() {
				_, frames := drain(t, ss)
				for _, f := range frames {
					gotCount[string(f)]++
					total++
					p, err := packet.Decode(f)
					if err != nil {
						t.Fatalf("segment %d: undecodable frame: %v", si, err)
					}
					if got := tcpasm.FlowShard(p.Flow(), segs); got != si {
						t.Fatalf("segment %d holds a frame whose flow hashes to %d", si, got)
					}
				}
			}
			if total != len(want.frames) {
				t.Fatalf("streamed %d frames across %d segments, want %d", total, segs, len(want.frames))
			}
			for f, n := range wantCount {
				if gotCount[f] != n {
					t.Fatalf("frame multiset mismatch: a pcap-path frame appears %d times streamed, want %d", gotCount[f], n)
				}
			}
			m := st.Metrics()
			if m.Blueprints != uint64(len(bps)) || m.Sessions != uint64(len(bps)) {
				t.Fatalf("metrics: blueprints=%d sessions=%d, want %d each", m.Blueprints, m.Sessions, len(bps))
			}
			if m.Packets != uint64(total) {
				t.Fatalf("metrics: packets=%d, want %d", m.Packets, total)
			}
			if m.Lag != 0 {
				t.Fatalf("metrics: lag=%d after full drain", m.Lag)
			}
		})
	}
}

// TestStreamCloseUnblocksProducer: closing mid-stream must not leak the
// routing goroutine even with full segment queues.
func TestStreamCloseUnblocksProducer(t *testing.T) {
	bps := streamWorkload(t, 7)
	tel := NewSim(SimConfig{Seed: 7})
	st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: 2, Queue: 1})
	// Consume a little of the first session, from the segment the flow
	// hash routes it to, then abandon: the router stays stuck on a full
	// queue.
	first := tel.Session(bps[0])
	seg := st.Segments()[tcpasm.FlowShard(packet.Flow{Src: first.Client, Dst: first.Server}, 2)]
	var p pcapio.Packet
	for i := 0; i < 3; i++ {
		if err := seg.NextInto(&p); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { st.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the routing goroutine")
	}
}

// streamPcapSHA256 pins the synthesized wire bytes of pinnedWorkload. It was
// recorded in PR 21, which replaced the frame builder's math/rand ISN source
// with a splitmix64 state: ISNs (hence seq/ack numbers and checksums) changed
// then, analysis outputs did not. A change here means every pcap written for
// a given seed changes too; update the constant only when that is intended,
// and say so in CHANGES.md.
const streamPcapSHA256 = "fbe26b891261def48909991baacebe076ca2212d1fe24750e7e44b1bda417389"

// pinnedWorkload is a fixed 50-session slice of the seed-1 study.
func pinnedWorkload(t *testing.T) []scanner.Blueprint {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 4000})
	if err != nil {
		t.Fatal(err)
	}
	return bps[:50]
}

// frameDigest hashes timestamped frames in the order given.
func frameDigest(ts []time.Time, frames [][]byte) string {
	h := sha256.New()
	var b [8]byte
	for i, f := range frames {
		binary.BigEndian.PutUint64(b[:], uint64(ts[i].UnixNano()))
		h.Write(b[:])
		binary.BigEndian.PutUint32(b[:4], uint32(len(f)))
		h.Write(b[:4])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sortedDigest is frameDigest over the records in (timestamp, bytes) order:
// the partition-independent form of a multi-segment capture.
func sortedDigest(ts []time.Time, frames [][]byte) string {
	idx := make([]int, len(frames))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if c := ts[i].Compare(ts[j]); c != 0 {
			return c < 0
		}
		return bytes.Compare(frames[i], frames[j]) < 0
	})
	sts, sf := make([]time.Time, len(idx)), make([][]byte, len(idx))
	for k, i := range idx {
		sts[k], sf[k] = ts[i], frames[i]
	}
	return frameDigest(sts, sf)
}

// TestStreamPcapBytesPinned: StreamPcap's frames hash to the recorded
// constant, and Stream reproduces exactly those records at 1 and 3 segments
// (frames are a pure function of seed and session; the order within one
// segment is TestStreamSingleSegmentMatchesWritePcap's job).
func TestStreamPcapBytesPinned(t *testing.T) {
	bps := pinnedWorkload(t)
	tel := NewSim(SimConfig{Seed: 1})
	var want capWriter
	if err := tel.StreamPcap(NewSliceSource(bps), &want); err != nil {
		t.Fatal(err)
	}
	if got := frameDigest(want.ts, want.frames); got != streamPcapSHA256 {
		t.Errorf("StreamPcap digest = %s, want %s: synthesized wire bytes changed "+
			"(every pcap written for a seed changes with them); if intended, update "+
			"streamPcapSHA256 and record it in CHANGES.md", got, streamPcapSHA256)
	}
	wantSorted := sortedDigest(want.ts, want.frames)
	for _, segs := range []int{1, 3} {
		st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: segs})
		var ts []time.Time
		var frames [][]byte
		for _, ss := range st.Segments() {
			sts, sf := drain(t, ss)
			ts, frames = append(ts, sts...), append(frames, sf...)
		}
		st.Close()
		if got := sortedDigest(ts, frames); got != wantSorted {
			t.Errorf("Stream(%d segments) frame set digest = %s, want the StreamPcap set %s", segs, got, wantSorted)
		}
	}
}
