package fleet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
)

// BenchmarkFleetThroughput measures end-to-end events/sec through the full
// wire path — spool, snappy batch encode, framed TCP, coordinator decode,
// dedup, group commit, sink append — for fleets of 1 to 8 sensors sharing
// one coordinator. The baseline lives in BENCH_fleet.json.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, sensors := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			benchFleet(b, sensors)
		})
	}
}

// benchSink counts applied events without retaining them, like the real
// eventstore sink (which encodes to file buffers). Retaining decoded events
// (memSink) makes the benchmark nonlinear in b.N: the GC rescans the
// ever-growing live set, so longer runs report lower throughput.
type benchSink struct{ n atomic.Int64 }

func (s *benchSink) AppendBatch(events []ids.Event) error {
	s.n.Add(int64(len(events)))
	return nil
}

func benchFleet(b *testing.B, sensors int) {
	const per = 100 // events per batch
	events := testEvents(b, per)

	sink := &benchSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	l, err := Listen(ListenerConfig{Listener: ln, Sink: sink, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	ships := make([]*Shipper, sensors)
	for i := range ships {
		s, err := StartShipper(ShipperConfig{
			Addr: l.Addr().String(), SensorID: fmt.Sprintf("bench-%d", i),
			StateDir: b.TempDir(), Window: 16,
			HeartbeatEvery: time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ships[i] = s
	}

	batches := b.N/per + 1
	b.SetBytes(int64(per))
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, s := range ships {
		wg.Add(1)
		go func(s *Shipper) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if err := s.AppendBatch(events); err != nil {
					b.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Minute)
	for _, s := range ships {
		for !s.Drained() {
			if time.Now().After(deadline) {
				b.Fatalf("never drained: %+v", s.Metrics())
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sink.n.Load())/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSnappyEncode(b *testing.B) {
	events := testEvents(b, 500)
	raw, _, _ := encodeSpoolBatch(nil, 1, events)
	b.SetBytes(int64(len(raw)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = snappyEncode(dst[:0], raw)
	}
	b.ReportMetric(float64(len(raw))/float64(len(dst)), "ratio")
}

func BenchmarkBatchEncodeDecode(b *testing.B) {
	events := testEvents(b, 100)
	for _, codec := range []Codec{CodecRaw, CodecSnappy, CodecDeflate} {
		b.Run(codec.String(), func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			for i := 0; i < b.N; i++ {
				wire, err := encodeBatch(uint64(i+1), events, codec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodeBatch(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpoolShip measures the sensor's per-batch write path: spooling a
// 100-event batch (encode, frame, append) and building the snappy wire batch
// the shipper sends for it from what was spooled. Each batch is acked at
// once, so the spool stays shallow and compacts as it does in steady state.
// Its ledger row gates allocs/op.
func BenchmarkSpoolShip(b *testing.B) {
	events := testEvents(b, 100)
	sp, err := openSpool(nil, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	var wire []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := sp.Add(events)
		if err != nil {
			b.Fatal(err)
		}
		batch, ok := sp.NextAfter(seq - 1)
		if !ok {
			b.Fatalf("batch %d is not pending", seq)
		}
		if wire, err = encodeBatchList(wire, batch.seq, batch.count, batch.list, CodecSnappy); err != nil {
			b.Fatal(err)
		}
		if err := sp.AckTo(seq); err != nil {
			b.Fatal(err)
		}
	}
}
