package ids

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/telescope"
)

// packetWriter is the slice of pcapio writers the generator needs.
type packetWriter interface {
	WritePacket(ts time.Time, data []byte) error
}

// writeInterleavedCapture emits nFlows interleaved conversations — a mix of
// exploit ("${jndi:" payloads) and noise sessions, some left open, some
// separated by idle gaps — in non-decreasing timestamp order.
func writeInterleavedCapture(t testing.TB, w packetWriter, seed int64, nFlows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bld := packet.NewBuilder(seed)
	ts := time.Date(2021, 12, 11, 0, 0, 0, 0, time.UTC)

	type script struct {
		segs []packet.Segment
		next int
	}
	flows := make([]*script, nFlows)
	for i := range flows {
		cli := packet.Endpoint{
			Addr: packet.MustAddr(fmt.Sprintf("203.0.113.%d", 1+rng.Intn(250))),
			Port: uint16(40000 + i),
		}
		srv := packet.Endpoint{
			Addr: packet.MustAddr(fmt.Sprintf("10.0.%d.%d", rng.Intn(8), 1+rng.Intn(250))),
			Port: []uint16{80, 8080, 443}[rng.Intn(3)],
		}
		payload := fmt.Sprintf("GET /robots%d.txt HTTP/1.1\r\nHost: h\r\n\r\n", i)
		if rng.Intn(3) == 0 {
			payload = fmt.Sprintf("GET /?x=${jndi:ldap://e%d/a} HTTP/1.1\r\nHost: h\r\n\r\n", i)
		}
		seq := rng.Uint32()
		sc := &script{segs: []packet.Segment{
			{Src: cli, Dst: srv, Seq: seq, Flags: packet.FlagSYN},
			{Src: srv, Dst: cli, Seq: 500, Ack: seq + 1, Flags: packet.FlagSYN | packet.FlagACK},
			{Src: cli, Dst: srv, Seq: seq + 1, Ack: 501, Flags: packet.FlagACK, Payload: []byte(payload)},
		}}
		if rng.Intn(4) != 0 { // most sessions close; the rest idle out or flush
			sc.segs = append(sc.segs,
				packet.Segment{Src: cli, Dst: srv, Seq: seq + 1 + uint32(len(payload)), Ack: 501, Flags: packet.FlagFIN | packet.FlagACK},
				packet.Segment{Src: srv, Dst: cli, Seq: 501, Ack: seq + 2 + uint32(len(payload)), Flags: packet.FlagFIN | packet.FlagACK},
			)
		}
		flows[i] = sc
	}
	live := make([]int, nFlows)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		sc := flows[live[k]]
		frame, err := bld.Build(sc.segs[sc.next])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(ts, frame); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Duration(1+rng.Intn(40)) * time.Millisecond)
		if rng.Intn(200) == 0 {
			ts = ts.Add(11 * time.Minute) // capture-wide lull: idles flows out
		}
		sc.next++
		if sc.next == len(sc.segs) {
			live = append(live[:k], live[k+1:]...)
		}
	}
	// One undecodable frame per decode error class, so DecodeErrors
	// accounting is covered on every path.
	for _, frame := range malformedFrames(t) {
		if err := w.WritePacket(ts, frame); err != nil {
			t.Fatal(err)
		}
	}
}

// malformedFrames is packet.MalformedFrames of a frame on a flow no fixture
// conversation uses: one frame per way a decode fails.
func malformedFrames(t testing.TB) [][]byte {
	t.Helper()
	valid, err := packet.NewBuilder(3).Build(packet.Segment{
		Src:   packet.Endpoint{Addr: packet.MustAddr("192.0.2.200"), Port: 3333},
		Dst:   packet.Endpoint{Addr: packet.MustAddr("10.9.9.9"), Port: 80},
		Flags: packet.FlagPSH | packet.FlagACK, Payload: []byte("GET / HTTP/1.0\r\n\r\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return packet.MalformedFrames(valid)
}

func diffEvents(t *testing.T, got, want []Event, gotStats, wantStats ScanStats) {
	t.Helper()
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats differ:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// openPcap opens a fresh reader over in-memory pcap bytes.
func openPcap(t testing.TB, data []byte) pcapio.PacketSource {
	t.Helper()
	r, err := pcapio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// nextOnly hides a source's NextInto, so the record loop takes its copying
// fallback for sources that are not pcapio.ZeroCopySource.
type nextOnly struct{ src pcapio.PacketSource }

func (n nextOnly) Next() (pcapio.Packet, error) { return n.src.Next() }

// legacyCapture is a small study capture dominated by scans for pre-study
// CVEs — what a real telescope mostly sees — with the unfiltered ruleset
// that attributes them.
func legacyCapture(t testing.TB) ([]byte, *Engine) {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: 5, Scale: 2000, LegacyScans: 150})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := telescope.NewSim(telescope.SimConfig{Seed: 5}).WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	rs, err := scanner.FullRuleset()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), NewEngine(rs, Config{PortInsensitive: true})
}

// TestScanCaptureShardedParity: the parallel scan must reproduce the serial
// scan exactly — events, order, stats — for every shard count, on clean,
// link-damaged and legacy-dominated captures alike. Shards 1 / workers 1 is
// the serial path of the same spine; the streamed driver and the Next()-only
// record loop are held to the same reference.
func TestScanCaptureShardedParity(t *testing.T) {
	var clean bytes.Buffer
	w, err := pcapio.NewWriter(&clean, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	writeInterleavedCapture(t, w, 99, 60)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pcapSource := func(data []byte) func() pcapio.PacketSource {
		return func() pcapio.PacketSource { return openPcap(t, data) }
	}
	impaired := impairedCaptureFrames(t, impairmentProfiles()["full"])
	legacy, legacyEngine := legacyCapture(t)

	for _, c := range []struct {
		name   string
		open   func() pcapio.PacketSource
		engine *Engine
	}{
		{"clean", pcapSource(clean.Bytes()), jndiEngine(t)},
		{"impaired", func() pcapio.PacketSource { return netsim.NewFrameSource(impaired) }, jndiEngine(t)},
		{"legacy", pcapSource(legacy), legacyEngine},
	} {
		e := c.engine
		wantEvents, wantStats, err := ScanCapture(c.open(), e)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantEvents) < 10 {
			t.Fatalf("%s: weak test input: only %d events", c.name, len(wantEvents))
		}

		for _, shards := range []int{1, 3, 8} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards%d_workers%d", c.name, shards, workers), func(t *testing.T) {
					events, stats, err := ScanCaptureSharded(
						[]pcapio.PacketSource{c.open()}, e,
						ScanConfig{Shards: shards, MatchWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					diffEvents(t, events, wantEvents, stats, wantStats)
				})
			}
		}
		t.Run(c.name+"/next_only", func(t *testing.T) {
			events, stats, err := ScanCaptureSharded(
				[]pcapio.PacketSource{nextOnly{c.open()}}, e, ScanConfig{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			diffEvents(t, events, wantEvents, stats, wantStats)
		})
		t.Run(c.name+"/streamed_serial", func(t *testing.T) {
			var got []Event
			stats, err := ScanCaptureStreamed(
				[]pcapio.PacketSource{c.open()}, e,
				ScanConfig{Shards: 1, MatchWorkers: 1},
				func(evs []Event) error {
					got = append(got, evs...)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]Event(nil), wantEvents...)
			sortEventsCanonical(want)
			sortEventsCanonical(got)
			diffEvents(t, got, want, stats, wantStats)
		})
	}
}

// TestScanDecodeErrors: every frame that does not decode is counted once,
// whichever path reads it — serial, sharded (where the shards decode raw
// frames the feeder routed) or streamed — at every shard width.
func TestScanDecodeErrors(t *testing.T) {
	data := interleavedCapture(t, 99, 30)
	e := jndiEngine(t)
	_, want, err := ScanCapture(openPcap(t, data), e)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(malformedFrames(t)); want.DecodeErrors != n {
		t.Fatalf("serial scan counted %d decode errors, want %d", want.DecodeErrors, n)
	}
	for _, shards := range []int{1, 3, 8} {
		cfg := ScanConfig{Shards: shards, MatchWorkers: 2}
		_, sharded, err := ScanCaptureSharded([]pcapio.PacketSource{openPcap(t, data)}, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ScanCaptureStreamed([]pcapio.PacketSource{openPcap(t, data)}, e, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.DecodeErrors != want.DecodeErrors || streamed.DecodeErrors != want.DecodeErrors {
			t.Errorf("shards %d: DecodeErrors sharded %d, streamed %d, serial %d",
				shards, sharded.DecodeErrors, streamed.DecodeErrors, want.DecodeErrors)
		}
	}
}

// TestScanCaptureShardedSegments fans one decoder out per rotated segment
// and checks the result against a serial scan of the concatenated segments.
// Sessions span segment boundaries (rotation cuts mid-conversation), so this
// exercises the cross-feeder ordering guarantee end to end.
func TestScanCaptureShardedSegments(t *testing.T) {
	dir := t.TempDir()
	rw, err := pcapio.NewRotatingWriter(dir, "seg", pcapio.LinkTypeEthernet, 4096, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	writeInterleavedCapture(t, rw, 7, 48)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	files := rw.Files()
	if len(files) < 3 {
		t.Fatalf("want several segments, got %d", len(files))
	}
	e := jndiEngine(t)

	serial, err := pcapio.OpenFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	wantEvents, wantStats, err := ScanCapture(serial, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEvents) == 0 {
		t.Fatal("weak test input: no events")
	}

	srcs, closeAll := openSegments(t, files)
	defer closeAll()
	events, stats, err := ScanCaptureSharded(srcs, e, ScanConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	diffEvents(t, events, wantEvents, stats, wantStats)
}

// openSegments opens one independent source per capture file, in segment
// order — what waybackctl's replay does for the fan-out path.
func openSegments(t testing.TB, files []string) ([]pcapio.PacketSource, func()) {
	t.Helper()
	var srcs []pcapio.PacketSource
	var closers []*pcapio.MultiSource
	for _, f := range files {
		ms, err := pcapio.OpenFiles(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, ms)
		closers = append(closers, ms)
	}
	return srcs, func() {
		for _, c := range closers {
			c.Close()
		}
	}
}

// TestScanCaptureShardedErrors: a truncated segment must surface its error
// with segment attribution, and an empty source list must be rejected.
func TestScanCaptureShardedErrors(t *testing.T) {
	if _, _, err := ScanCaptureSharded(nil, jndiEngine(t), ScanConfig{}); err == nil {
		t.Error("empty source list accepted")
	}

	data := buildCapture(t)
	path := filepath.Join(t.TempDir(), "trunc.pcap")
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := pcapio.OpenFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, _, err := ScanCaptureSharded([]pcapio.PacketSource{src}, jndiEngine(t), ScanConfig{}); err == nil {
		t.Error("truncated capture scanned without error")
	}
}
