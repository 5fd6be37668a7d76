// Command waybackfeed generates the simulated telescope capture — either as
// rotating pcap segments in a watch directory (the traffic source for
// waybackd's tailer) or, with -stream, as a zero-materialization pipeline
// that synthesizes, scans, and ships attributed events without a single
// pcap byte touching memory or disk.
//
// Usage:
//
//	waybackfeed -dir capture/ [-seed 1] [-scale 50] [-noise 0]
//	            [-prefix dscope] [-segment-bytes 262144] [-delay 0]
//	            [-shard 0 -shards 1]
//
//	waybackfeed -stream [-seed 1] [-scale 50] [-noise 0]
//	            [-segments 0] [-shard 0 -shards 1]
//	            [-coordinator host:8417 -state spool/ -id sensor-a]
//	            [-metrics-listen 127.0.0.1:9100]
//
// With the same seed and scale, waybackd's analyses over this capture match
// a batch wayback.Study run byte for byte — the -stream path is parity-tested
// against the pcap path.
//
// With -shards N, only the traffic whose destination falls in -shard's slice
// of the telescope address space is kept — the capture a single fleet sensor
// would see. N feeds with shards 0..N-1 partition the full study exactly:
// every session lands in one shard, so a sensor per shard converges to the
// same analysis as one unsharded daemon.
//
// In -stream mode with -coordinator, attributed events ship over the fleet
// protocol (durably spooled in -state, exactly-once on the coordinator);
// without it the run is a dry run that prints the scan summary.
// -metrics-listen serves Prometheus-style gauges while the stream runs:
// waybackd_stream_blueprints_total, waybackd_stream_packets_total,
// waybackd_stream_sessions_total, and waybackd_stream_generator_lag.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/serve"
	"repro/internal/telescope"
	"repro/wayback"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waybackfeed:", err)
		os.Exit(1)
	}
}

// metricsReady, when set (tests), receives the bound -metrics-listen address
// before the stream starts.
var metricsReady func(addr string)

func run(args []string) error {
	fs := flag.NewFlagSet("waybackfeed", flag.ContinueOnError)
	dir := fs.String("dir", "", "watch directory to write segments into (required unless -stream)")
	prefix := fs.String("prefix", "dscope", "segment filename prefix")
	seed := fs.Int64("seed", 1, "study seed")
	scale := fs.Int("scale", 50, "event volume divisor (1 = full 115k-event study)")
	noise := fs.Int("noise", 0, "non-exploit background sessions (0 = one tenth of exploits)")
	segBytes := fs.Int64("segment-bytes", 256<<10, "rotate segments at this size")
	delay := fs.Duration("delay", 0, "pause between 100-session chunks (paces the feed for live tailing)")
	shard := fs.Int("shard", 0, "keep only this address-space shard of the capture")
	shards := fs.Int("shards", 1, "total shards the capture is split into")
	stream := fs.Bool("stream", false, "stream mode: synthesize, scan, and ship events with no pcap bytes")
	segments := fs.Int("segments", 0, "stream mode: virtual capture segments (0 = min(8, GOMAXPROCS))")
	coordinator := fs.String("coordinator", "", "stream mode: fleet address to ship attributed events to")
	state := fs.String("state", "", "stream mode: shipper spool directory (required with -coordinator)")
	sensorID := fs.String("id", "waybackfeed", "stream mode: stable sensor ID for the fleet watermark")
	metricsListen := fs.String("metrics-listen", "", "stream mode: serve /metrics on this address while streaming")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		return fmt.Errorf("-shard %d out of range of -shards %d", *shard, *shards)
	}
	if *stream {
		return runStream(streamOpts{
			seed: *seed, scale: *scale, noise: *noise, segments: *segments,
			shard: *shard, shards: *shards,
			coordinator: *coordinator, state: *state, sensorID: *sensorID,
			metricsListen: *metricsListen,
		})
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	bps, err := scanner.Build(scanner.Config{Seed: *seed, Scale: *scale, Noise: *noise})
	if err != nil {
		return err
	}
	tel := telescope.NewSim(telescope.SimConfig{Seed: *seed})
	sessions := tel.Sessions(bps)
	if *shards > 1 {
		kept := sessions[:0]
		for i := range sessions {
			if fleet.ShardOf(sessions[i].Server.Addr, *shards) == *shard {
				kept = append(kept, sessions[i])
			}
		}
		sessions = kept
	}

	// Nanosecond precision so session start times survive the pcap round
	// trip exactly — the byte-for-byte table equality depends on it.
	rw, err := pcapio.NewRotatingWriter(*dir, *prefix, pcapio.LinkTypeEthernet, *segBytes,
		pcapio.WithNanoPrecision())
	if err != nil {
		return err
	}
	const chunk = 100
	for start := 0; start < len(sessions); start += chunk {
		end := start + chunk
		if end > len(sessions) {
			end = len(sessions)
		}
		if err := telescope.SessionsToPcap(sessions[start:end], rw, *seed); err != nil {
			rw.Close()
			return err
		}
		if *delay > 0 && end < len(sessions) {
			time.Sleep(*delay)
		}
	}
	if err := rw.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d sessions as %d segments under %s\n", len(sessions), len(rw.Files()), *dir)
	return nil
}

type streamOpts struct {
	seed          int64
	scale, noise  int
	segments      int
	shard, shards int
	coordinator   string
	state         string
	sensorID      string
	metricsListen string
}

// runStream is the zero-materialization path: the study's streaming pipeline
// (lazy generation → virtual segments → sharded reassembly → matching) feeds
// a sink that optionally ships over the fleet protocol. No pcap bytes exist
// at any point.
func runStream(o streamOpts) error {
	study, err := wayback.NewStudy(wayback.Config{
		Seed: o.seed, Scale: o.scale, Noise: o.noise,
		Streaming: true, StreamSegments: o.segments,
	})
	if err != nil {
		return err
	}

	var ship *fleet.Shipper
	if o.coordinator != "" {
		if o.state == "" {
			return fmt.Errorf("-coordinator requires -state for the durable spool")
		}
		ship, err = fleet.StartShipper(fleet.ShipperConfig{
			Addr:     o.coordinator,
			SensorID: o.sensorID,
			Shard:    o.shard,
			Shards:   o.shards,
			StateDir: o.state,
		})
		if err != nil {
			return err
		}
		defer ship.Close()
	}

	if o.metricsListen != "" {
		ln, err := net.Listen("tcp", o.metricsListen)
		if err != nil {
			return err
		}
		srv := serve.NewHTTPServer("", metricsHandler(study))
		go srv.Serve(ln)
		defer srv.Close()
		if metricsReady != nil {
			metricsReady(ln.Addr().String())
		}
	}

	var attributed, shipped int64
	sink := func(events []ids.Event) error {
		if o.shards > 1 {
			kept := events[:0]
			for _, ev := range events {
				if fleet.ShardOf(ev.Dst.Addr, o.shards) == o.shard {
					kept = append(kept, ev)
				}
			}
			events = kept
		}
		attributed += int64(len(events))
		if ship == nil || len(events) == 0 {
			return nil
		}
		shipped += int64(len(events))
		return ship.AppendBatch(events)
	}

	res, err := study.RunStream(sink)
	if err != nil {
		return err
	}
	if ship != nil {
		if err := ship.Sync(); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := ship.WaitDrained(ctx); err != nil {
			return fmt.Errorf("waiting for coordinator acks: %w", err)
		}
	}
	m, _ := study.StreamMetrics()
	fmt.Printf("streamed %d sessions as %d packets: %d matched, %d attributed to this shard, %d shipped\n",
		m.Sessions, res.Stats.Packets, res.Stats.MatchedEvents, attributed, shipped)
	return nil
}

// metricsHandler serves the generator's progress in Prometheus text format,
// matching waybackd's metric naming.
func metricsHandler(study *wayback.Study) http.Handler {
	mux := http.NewServeMux()
	var scrapes atomic.Int64
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		scrapes.Add(1)
		m, _ := study.StreamMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		g := func(name string, v any) { fmt.Fprintf(w, "waybackd_%s %v\n", name, v) }
		g("stream_blueprints_total", m.Blueprints)
		g("stream_packets_total", m.Packets)
		g("stream_sessions_total", m.Sessions)
		g("stream_generator_lag", m.Lag)
		g("stream_metrics_scrapes_total", scrapes.Load())
	})
	return mux
}
