package telescope

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// StreamConfig tunes the zero-materialization capture stream.
type StreamConfig struct {
	// Segments is how many virtual capture segments the synthetic traffic
	// is partitioned into; each gets its own PacketSource and (downstream)
	// its own decode goroutine. Zero means 1.
	Segments int
	// Queue bounds the sessions buffered per segment between the routing
	// goroutine and that segment's consumer — the backpressure that keeps
	// generation from outrunning the scan. Zero means 256.
	Queue int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Segments < 1 {
		c.Segments = 1
	}
	if c.Queue < 1 {
		c.Queue = 256
	}
	return c
}

// StreamMetrics is a point-in-time view of a running Stream, for /metrics.
type StreamMetrics struct {
	// Blueprints drawn from the source so far.
	Blueprints uint64
	// Sessions routed to segments so far.
	Sessions uint64
	// Packets synthesized across all segments so far.
	Packets uint64
	// Lag is the number of routed sessions not yet consumed — the
	// generator's lead over the scan. Bounded by Segments × Queue.
	Lag int
}

// Stream is a synthetic capture split into virtual segments: one lightweight
// routing goroutine draws blueprints from the source, materializes session
// records, and fans them out to per-segment queues partitioned by the
// reassembler's own flow hash (tcpasm.FlowShard). Each segment is a
// pcapio.PacketSource whose frames are synthesized lazily inside NextInto —
// what crosses the channel is the session record (endpoints plus payload
// slice), and the ~5× larger wire encoding only ever exists in the decoder's
// lent buffer. Every segment holds complete conversations, so it is a
// pcapio.FlowPartitionedSource, which the ids scan reassembles on its own
// decode goroutine with no cross-segment time order; frame bytes are a pure
// function of (seed, session), so results are byte-identical for any
// segment count.
type Stream struct {
	segs []*StreamSource
	stop chan struct{}
	done chan struct{}
	once sync.Once

	blueprints atomic.Uint64
	sessions   atomic.Uint64
}

// Stream starts the routing goroutine and returns the segmented capture.
// Close must be called if the segments are not drained to EOF.
func (t *Telescope) Stream(src BlueprintSource, cfg StreamConfig) *Stream {
	cfg = cfg.withDefaults()
	st := &Stream{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < cfg.Segments; i++ {
		ss := &StreamSource{
			seed: t.cfg.Seed,
			ch:   make(chan tcpasm.Session, cfg.Queue),
		}
		ss.g.b = packet.NewBuilder(t.cfg.Seed)
		st.segs = append(st.segs, ss)
	}
	go st.route(t, src)
	return st
}

// route is the producer: blueprint → session → flow-partitioned segment.
func (st *Stream) route(t *Telescope, src BlueprintSource) {
	defer close(st.done)
	for _, ss := range st.segs {
		defer close(ss.ch)
	}
	n := len(st.segs)
	for {
		bp, ok := src.Next()
		if !ok {
			return
		}
		st.blueprints.Add(1)
		s := t.Session(bp)
		si := 0
		if n > 1 {
			si = tcpasm.FlowShard(packet.Flow{Src: s.Client, Dst: s.Server}, n)
		}
		select {
		case st.segs[si].ch <- s:
			st.sessions.Add(1)
		case <-st.stop:
			return
		}
	}
}

// PacketSources returns the segments as generic capture sources, in segment
// order — the shape ids.ScanCaptureSharded takes.
func (st *Stream) PacketSources() []pcapio.PacketSource {
	out := make([]pcapio.PacketSource, len(st.segs))
	for i, ss := range st.segs {
		out[i] = ss
	}
	return out
}

// Segments returns the stream's segment sources.
func (st *Stream) Segments() []*StreamSource { return st.segs }

// Metrics snapshots generator progress. Safe from any goroutine.
func (st *Stream) Metrics() StreamMetrics {
	m := StreamMetrics{
		Blueprints: st.blueprints.Load(),
		Sessions:   st.sessions.Load(),
	}
	for _, ss := range st.segs {
		m.Packets += ss.packets.Load()
		m.Lag += len(ss.ch)
	}
	return m
}

// Close stops the routing goroutine and waits for it to exit. Draining every
// segment to EOF also ends the stream; Close is then a no-op. Safe to call
// multiple times.
func (st *Stream) Close() {
	st.once.Do(func() { close(st.stop) })
	<-st.done
}

// StreamSource is one virtual capture segment: a pcapio.ZeroCopySource whose
// records are synthesized on demand from the sessions routed to it. Like any
// capture reader it is not safe for concurrent use; each segment belongs to
// one decode goroutine.
type StreamSource struct {
	seed    int64
	ch      chan tcpasm.Session
	g       frameGen
	active  bool
	packets atomic.Uint64
}

// NextInto synthesizes the next frame into p, reusing p.Data's capacity —
// the decoder's lent buffer is the only place the wire bytes ever exist.
// Returns io.EOF when the stream's sessions are exhausted.
func (ss *StreamSource) NextInto(p *pcapio.Packet) error {
	for {
		if !ss.active {
			s, ok := <-ss.ch
			if !ok {
				return io.EOF
			}
			ss.g.start(ss.seed, &s)
			ss.active = true
		}
		ts, frame, ok, err := ss.g.next(p.Data[:0])
		if err != nil {
			return err
		}
		if !ok {
			ss.active = false
			continue
		}
		ss.packets.Add(1)
		p.Timestamp = ts
		p.Data = frame
		p.OrigLen = len(frame)
		return nil
	}
}

// FlowPartitioned marks the segment as a pcapio.FlowPartitionedSource.
func (ss *StreamSource) FlowPartitioned() {}

// Next implements pcapio.PacketSource (allocating per record; the scan
// uses NextInto).
func (ss *StreamSource) Next() (pcapio.Packet, error) {
	var p pcapio.Packet
	if err := ss.NextInto(&p); err != nil {
		return pcapio.Packet{}, err
	}
	return p, nil
}
