package ids

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// flowPart is an in-memory pcapio.FlowPartitionedSource: one partition of a
// capture, holding whole flows.
type flowPart struct{ *netsim.FrameSource }

func (flowPart) FlowPartitioned() {}

// failingPart is a flow-partitioned failingSource.
type failingPart struct{ *failingSource }

func (failingPart) FlowPartitioned() {}

// partitionFunc maps a flow to one of n sources.
type partitionFunc func(f packet.Flow, n int) int

// saltedShard is a symmetric flow hash unrelated to tcpasm's: each endpoint
// is hashed with the salt and the two hashes are added, so both directions
// of a connection land together. Scanning partitions made with it checks
// that the scan does not depend on tcpasm's shard layout.
func saltedShard(salt uint64) partitionFunc {
	endpoint := func(e packet.Endpoint) uint64 {
		a := e.Addr.As16()
		h := salt ^ binary.BigEndian.Uint64(a[:8])*0x9e3779b97f4a7c15 ^ binary.BigEndian.Uint64(a[8:]) ^ uint64(e.Port)<<48
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		return h ^ h>>29
	}
	return func(f packet.Flow, n int) int {
		return int((endpoint(f.Src) + endpoint(f.Dst)) % uint64(n))
	}
}

// partitionCapture reads src to EOF and splits its records into n parts by
// part, each in capture order. Frames that do not decode go to part 0.
func partitionCapture(t testing.TB, src pcapio.PacketSource, n int, part partitionFunc) [][]pcapio.Packet {
	t.Helper()
	parts := make([][]pcapio.Packet, n)
	var p packet.Packet
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return parts
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Data = append([]byte(nil), rec.Data...)
		i := 0
		if packet.DecodeInto(&p, rec.Data) == nil {
			i = part(p.Flow(), n)
		}
		parts[i] = append(parts[i], rec)
	}
}

// partSources opens one fresh flow-partitioned source per part.
func partSources(parts [][]pcapio.Packet) []pcapio.PacketSource {
	srcs := make([]pcapio.PacketSource, len(parts))
	for i, recs := range parts {
		srcs[i] = flowPart{netsim.NewFrameSource(recs)}
	}
	return srcs
}

// TestScanFlowPartitionedParity: a capture split into flow-partitioned
// sources — by tcpasm.FlowShard, as the streaming telescope splits it, and
// by an unrelated salted hash — must scan to exactly what the serial scan of
// the whole capture gives, under both drivers, for any source and worker
// count. Each source spans the whole capture window, so this also pins that
// reassembly of flow-partitioned sources runs no cross-source time order.
func TestScanFlowPartitionedParity(t *testing.T) {
	impaired := impairedCaptureFrames(t, impairmentProfiles()["full"])
	legacy, legacyEngine := legacyCapture(t)
	captures := []struct {
		name   string
		open   func() pcapio.PacketSource
		engine *Engine
	}{
		{"clean", func() pcapio.PacketSource { return openPcap(t, interleavedCapture(t, 99, 60)) }, jndiEngine(t)},
		{"impaired", func() pcapio.PacketSource { return netsim.NewFrameSource(impaired) }, jndiEngine(t)},
		{"legacy", func() pcapio.PacketSource { return openPcap(t, legacy) }, legacyEngine},
	}
	type want struct {
		events, sorted []Event
		stats          ScanStats
	}
	wants := make([]want, len(captures))
	for i, c := range captures {
		events, stats, err := ScanCapture(c.open(), c.engine)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) < 10 {
			t.Fatalf("%s: weak test input: only %d events", c.name, len(events))
		}
		sorted := append([]Event(nil), events...)
		sortEventsCanonical(sorted)
		wants[i] = want{events, sorted, stats}
	}
	hashes := []struct {
		name string
		part partitionFunc
	}{
		{"flowshard", tcpasm.FlowShard},
		{"salted", saltedShard(0x5eed)},
	}

	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("sources%d", n), func(t *testing.T) {
			for ci, c := range captures {
				w := wants[ci]
				for _, h := range hashes {
					parts := partitionCapture(t, c.open(), n, h.part)
					filled := 0
					for _, p := range parts {
						if len(p) > 0 {
							filled++
						}
					}
					if filled < min(n, 3) {
						t.Fatalf("%s/%s: weak partition: %d of %d sources hold records", c.name, h.name, filled, n)
					}
					for _, workers := range []int{1, 4} {
						t.Run(fmt.Sprintf("%s/%s/workers%d", c.name, h.name, workers), func(t *testing.T) {
							cfg := ScanConfig{MatchWorkers: workers}
							events, stats, err := ScanCaptureSharded(partSources(parts), c.engine, cfg)
							if err != nil {
								t.Fatal(err)
							}
							diffEvents(t, events, w.events, stats, w.stats)

							var got []Event
							stats, err = ScanCaptureStreamed(partSources(parts), c.engine, cfg,
								exclusiveSink(t, func(evs []Event) error {
									got = append(got, evs...)
									return nil
								}))
							if err != nil {
								t.Fatal(err)
							}
							sortEventsCanonical(got)
							diffEvents(t, got, w.sorted, stats, w.stats)
						})
					}
				}
			}
		})
	}
}
