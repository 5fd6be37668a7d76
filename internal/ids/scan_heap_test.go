package ids

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
)

// missCapture synthesizes a miss-heavy capture on the fly, so the capture
// itself holds no memory: sessions one after another — handshake, one
// payload segment, FIN from both sides — all but every hitEvery-th carrying
// bytes no jndi rule matches.
type missCapture struct {
	bld      *packet.Builder
	payload  []byte // a miss
	exploit  []byte // a hit
	sessions int    // sessions to write
	hitEvery int

	n    int // sessions written, counting the one in progress
	segs []packet.Segment
	ts   time.Time
}

func newMissCapture(sessions, payloadBytes, hitEvery int) *missCapture {
	miss := append([]byte("GET /robots.txt HTTP/1.1\r\nX-Pad: "), bytes.Repeat([]byte{'a'}, payloadBytes)...)
	hit := append([]byte("GET /?x=${jndi:ldap://e/a} HTTP/1.1\r\nX-Pad: "), bytes.Repeat([]byte{'a'}, payloadBytes)...)
	return &missCapture{
		bld:      packet.NewBuilder(9),
		payload:  miss[:payloadBytes],
		exploit:  hit[:payloadBytes],
		sessions: sessions,
		hitEvery: hitEvery,
		ts:       time.Date(2022, 1, 3, 0, 0, 0, 0, time.UTC),
	}
}

func (m *missCapture) Next() (pcapio.Packet, error) {
	if len(m.segs) == 0 {
		if m.n == m.sessions {
			return pcapio.Packet{}, io.EOF
		}
		m.n++
		cli := packet.Endpoint{Addr: packet.MustAddr("203.0.113.9"), Port: uint16(1024 + m.n%60000)}
		srv := packet.Endpoint{Addr: packet.MustAddr("10.0.0.1"), Port: 80}
		data := m.payload
		if m.n%m.hitEvery == 0 {
			data = m.exploit
		}
		seq, end := uint32(m.n)*7919, uint32(m.n)*7919+1+uint32(len(data))
		m.segs = []packet.Segment{
			{Src: cli, Dst: srv, Seq: seq, Flags: packet.FlagSYN},
			{Src: srv, Dst: cli, Seq: 500, Ack: seq + 1, Flags: packet.FlagSYN | packet.FlagACK},
			{Src: cli, Dst: srv, Seq: seq + 1, Ack: 501, Flags: packet.FlagPSH | packet.FlagACK, Payload: data},
			{Src: cli, Dst: srv, Seq: end, Ack: 501, Flags: packet.FlagFIN | packet.FlagACK},
			{Src: srv, Dst: cli, Seq: 501, Ack: end + 1, Flags: packet.FlagFIN | packet.FlagACK},
		}
	}
	frame, err := m.bld.Build(m.segs[0])
	if err != nil {
		return pcapio.Packet{}, err
	}
	m.segs = m.segs[1:]
	m.ts = m.ts.Add(time.Millisecond)
	return pcapio.Packet{Timestamp: m.ts, Data: frame}, nil
}

// heapProbe wraps a source and samples the live heap, after a collection,
// every `every` records.
type heapProbe struct {
	src   pcapio.PacketSource
	every int
	n     int
	peak  uint64
}

func (h *heapProbe) Next() (pcapio.Packet, error) {
	if h.n++; h.n%h.every == 0 {
		h.peak = max(h.peak, liveHeap())
	}
	return h.src.Next()
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestScanCaptureShardedHeapBounded: the batch scan streams. Over a
// miss-heavy capture it keeps only matched sessions, so the live heap may
// grow by the in-flight window but not by the capture's payload.
func TestScanCaptureShardedHeapBounded(t *testing.T) {
	const sessions, payload, hitEvery = 24 << 10, 1400, 512
	total := uint64(sessions * payload) // 33.6 MB of client payload
	probe := &heapProbe{src: newMissCapture(sessions, payload, hitEvery), every: 4096}
	e := jndiEngine(t)
	base := liveHeap()
	events, stats, err := ScanCaptureSharded([]pcapio.PacketSource{probe}, e, ScanConfig{Shards: 2, MatchWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != sessions || len(events) != sessions/hitEvery {
		t.Fatalf("scanned %d sessions into %d events, want %d and %d", stats.Sessions, len(events), sessions, sessions/hitEvery)
	}
	var growth uint64
	if probe.peak > base {
		growth = probe.peak - base
	}
	t.Logf("peak live heap growth %.1f MiB over %.1f MiB of client payload", float64(growth)/(1<<20), float64(total)/(1<<20))
	if growth > total/4 {
		t.Fatalf("live heap grew by %d bytes, more than a quarter of the %d payload bytes", growth, total)
	}
}
