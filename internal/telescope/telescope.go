package telescope

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
)

// SimConfig tunes the simulated telescope.
type SimConfig struct {
	// Seed drives instance address assignment and TCP details.
	Seed int64
	// InstanceLifetime is how long each instance keeps its address before
	// being replaced (the paper found ~10 minutes optimal). Zero means 10
	// minutes.
	InstanceLifetime time.Duration
	// Concurrent is the number of instances live at once (the real
	// deployment ran ~300). Zero means 30, a scaled-down default.
	Concurrent int
	// PoolPrefixes is the cloud address space instances draw from. Empty
	// means a built-in set of provider-like prefixes.
	PoolPrefixes []string
}

func (c SimConfig) withDefaults() SimConfig {
	if c.InstanceLifetime == 0 {
		c.InstanceLifetime = 10 * time.Minute
	}
	if c.Concurrent == 0 {
		c.Concurrent = 30
	}
	if len(c.PoolPrefixes) == 0 {
		c.PoolPrefixes = []string{
			"3.208.0.0/16", "18.204.0.0/16", "34.192.0.0/16",
			"44.192.0.0/16", "52.0.0.0/16", "54.144.0.0/16",
		}
	}
	return c
}

// Telescope is the simulated deployment.
type Telescope struct {
	cfg  SimConfig
	pool *netsim.Pool
}

// NewSim creates a simulated telescope.
func NewSim(cfg SimConfig) *Telescope {
	cfg = cfg.withDefaults()
	return &Telescope{
		cfg:  cfg,
		pool: netsim.MustPool(cfg.Seed, cfg.PoolPrefixes...),
	}
}

// InstanceAt returns the telescope endpoint that receives a session starting
// at time t, choosing among the concurrently live instances. The mapping is
// a pure function of (epoch, slot, seed): instances churn every lifetime
// period, and addresses recur the way cloud reallocation recurs.
func (t *Telescope) InstanceAt(at time.Time, slotHint uint64) netip.Addr {
	epoch := at.Unix() / int64(t.cfg.InstanceLifetime/time.Second)
	slot := slotHint % uint64(t.cfg.Concurrent)
	h := fnv.New64a()
	var buf [24]byte
	put64(buf[0:8], uint64(epoch))
	put64(buf[8:16], slot)
	put64(buf[16:24], uint64(t.cfg.Seed))
	h.Write(buf[:])
	return t.addrFromHash(h.Sum64())
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// addrFromHash maps a hash onto the pool's address space deterministically.
func (t *Telescope) addrFromHash(h uint64) netip.Addr {
	n := h % t.pool.Size()
	// Walk the pool's prefixes the same way Pool.Next does, but indexed
	// rather than random so the mapping is stable.
	return t.pool.AddrAt(n)
}

// Session materializes one blueprint into a reassembled session record with
// the receiving instance filled in.
func (t *Telescope) Session(bp scanner.Blueprint) tcpasm.Session {
	// The source address's text keys both the port and the instance; hash
	// it once, rendered into a stack buffer.
	var text [64]byte
	srcHash := hash64(addrText(text[:0], bp.Src))
	srcPort := uint16(32768 + (srcHash+uint64(bp.Time.UnixNano()))%28000)
	dst := t.InstanceAt(bp.Time, srcHash)
	return tcpasm.Session{
		Client:     packet.Endpoint{Addr: bp.Src, Port: srcPort},
		Server:     packet.Endpoint{Addr: dst, Port: bp.DstPort},
		Start:      bp.Time,
		End:        bp.Time.Add(time.Duration(2+len(bp.Payload)/1200) * 120 * time.Millisecond),
		ClientData: bp.Payload,
		Packets:    5 + len(bp.Payload)/1200,
		Complete:   true,
		Closed:     true,
	}
}

// BlueprintSource is a pull iterator over a workload. scanner.Stream
// implements it natively; SliceSource adapts a materialized slice.
type BlueprintSource interface {
	// Next returns the next blueprint, or false when exhausted.
	Next() (scanner.Blueprint, bool)
}

// SliceSource adapts a materialized workload to BlueprintSource.
type SliceSource struct {
	bps []scanner.Blueprint
	i   int
}

// NewSliceSource returns a source that yields bps in order.
func NewSliceSource(bps []scanner.Blueprint) *SliceSource {
	return &SliceSource{bps: bps}
}

// Next implements BlueprintSource.
func (s *SliceSource) Next() (scanner.Blueprint, bool) {
	if s.i >= len(s.bps) {
		return scanner.Blueprint{}, false
	}
	bp := s.bps[s.i]
	s.i++
	return bp, true
}

// SessionSeq is a pull iterator of session records: each blueprint drawn
// from the source, materialized through Session. This is the single
// generator every session-consuming API drains.
type SessionSeq struct {
	t   *Telescope
	src BlueprintSource
}

// SessionSeq returns the lazy session iterator over src.
func (t *Telescope) SessionSeq(src BlueprintSource) *SessionSeq {
	return &SessionSeq{t: t, src: src}
}

// Next returns the next session, or false when the source is exhausted.
func (q *SessionSeq) Next() (tcpasm.Session, bool) {
	bp, ok := q.src.Next()
	if !ok {
		return tcpasm.Session{}, false
	}
	return q.t.Session(bp), true
}

// EachSession drains src through yield, stopping at the first error.
func (t *Telescope) EachSession(src BlueprintSource, yield func(tcpasm.Session) error) error {
	for {
		bp, ok := src.Next()
		if !ok {
			return nil
		}
		if err := yield(t.Session(bp)); err != nil {
			return err
		}
	}
}

// Sessions materializes a whole workload (the fast path used by large
// experiments; byte-identical analysis inputs to the pcap path). It is a
// thin wrapper over SessionSeq.
func (t *Telescope) Sessions(bps []scanner.Blueprint) []tcpasm.Session {
	out := make([]tcpasm.Session, 0, len(bps))
	seq := t.SessionSeq(NewSliceSource(bps))
	for {
		s, ok := seq.Next()
		if !ok {
			return out
		}
		out = append(out, s)
	}
}

// hash64 is 64-bit FNV-1a.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// addrText appends a.String() to buf: AppendTo's text, except that the
// zero Addr renders as String's "invalid IP" rather than nothing.
func addrText(buf []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(buf, "invalid IP"...)
	}
	return a.AppendTo(buf)
}

// PacketWriter is the capture sink WritePcap emits into; both the classic
// pcap writer and the pcapng writer satisfy it.
type PacketWriter interface {
	WritePacket(ts time.Time, data []byte) error
	Flush() error
}

// WritePcap converts blueprints into a full packet capture: for each session
// a three-way handshake, client payload segments (the instance never sends
// application data), and a FIN teardown, all with valid checksums. The
// result replays through packet decoding, TCP reassembly, and the IDS
// exactly like a real capture. It is a thin wrapper over StreamPcap.
func (t *Telescope) WritePcap(bps []scanner.Blueprint, w PacketWriter) error {
	return t.StreamPcap(NewSliceSource(bps), w)
}

// StreamPcap is WritePcap over a lazy blueprint source: blueprints are drawn,
// materialized into sessions, and synthesized into frames one at a time, so
// the capture streams to w in constant memory regardless of workload size.
func (t *Telescope) StreamPcap(src BlueprintSource, w PacketWriter) error {
	seq := t.SessionSeq(src)
	return writeSessions(seq.Next, w, t.cfg.Seed)
}

// CoverageStats summarizes address-space coverage of a captured workload,
// the numbers behind the paper's Section 4 scale claims.
type CoverageStats struct {
	Sessions           int
	UniqueTelescopeIPs int
	UniqueSourceIPs    int
}

// Coverage computes coverage statistics over materialized sessions.
func Coverage(sessions []tcpasm.Session) CoverageStats {
	dsts := map[netip.Addr]struct{}{}
	srcs := map[netip.Addr]struct{}{}
	for i := range sessions {
		dsts[sessions[i].Server.Addr] = struct{}{}
		srcs[sessions[i].Client.Addr] = struct{}{}
	}
	return CoverageStats{
		Sessions:           len(sessions),
		UniqueTelescopeIPs: len(dsts),
		UniqueSourceIPs:    len(srcs),
	}
}

// SessionsToPcap reconstructs canonical wire frames (handshake, client
// payload, teardown) from session records and writes them as a capture.
// This is how live-mode captures — which exist only as session records —
// enter the same post-facto replay path as simulated captures: the
// reconstruction is lossless for everything the IDS inspects (endpoints,
// timing, client bytes). It is a thin wrapper over writeSessions, the one
// generator behind every capture-producing API.
func SessionsToPcap(sessions []tcpasm.Session, w PacketWriter, seed int64) error {
	i := 0
	next := func() (tcpasm.Session, bool) {
		if i >= len(sessions) {
			return tcpasm.Session{}, false
		}
		s := sessions[i]
		i++
		return s, true
	}
	return writeSessions(next, w, seed)
}

// writeSessions drains a session iterator into a capture writer through one
// reused frame generator and one reused frame buffer.
func writeSessions(next func() (tcpasm.Session, bool), w PacketWriter, seed int64) error {
	g := frameGen{b: packet.NewBuilder(seed)}
	buf := make([]byte, 0, 2048)
	for i := 0; ; i++ {
		s, ok := next()
		if !ok {
			return w.Flush()
		}
		g.start(seed, &s)
		for {
			ts, frame, ok, err := g.next(buf[:0])
			if err != nil {
				return fmt.Errorf("telescope: session %d: %w", i, err)
			}
			if !ok {
				break
			}
			if err := w.WritePacket(ts, frame); err != nil {
				return err
			}
			buf = frame // keep the (possibly grown) capacity
		}
	}
}

// frameMSS is the synthetic client's maximum segment size: payloads larger
// than this split across PSH segments, as in the original capture writer.
const frameMSS = 1200

// sessionFrameSeed derives the per-session builder seed: FNV-1a over the
// study seed and the session's identity (endpoints, start time). Reseeding
// per session makes frame bytes a pure function of (seed, session), so any
// partition of the workload across generators synthesizes identical frames.
func sessionFrameSeed(seed int64, s *tcpasm.Session) int64 {
	var buf [28]byte
	put64(buf[0:8], uint64(seed))
	ca, sa := s.Client.Addr.As4(), s.Server.Addr.As4()
	copy(buf[8:12], ca[:])
	buf[12] = byte(s.Client.Port >> 8)
	buf[13] = byte(s.Client.Port)
	copy(buf[14:18], sa[:])
	buf[18] = byte(s.Server.Port >> 8)
	buf[19] = byte(s.Server.Port)
	put64(buf[20:28], uint64(s.Start.UnixNano()))
	h := fnv.New64a()
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Frame-generator stages, in wire order.
const (
	stageSYN = iota
	stageSYNACK
	stageACK
	stageData
	stageFIN
	stageFINACK
	stageDone
)

// frameGen emits one session's canonical wire frames — handshake, client
// payload segments, teardown — one frame per next call, 20 ms apart,
// synthesized into the caller's buffer. The builder is reseeded per session
// (see sessionFrameSeed), so generators running in parallel over disjoint
// session sets produce exactly the frames a single sequential writer would.
type frameGen struct {
	b      *packet.Builder
	s      tcpasm.Session
	isn    uint32
	srvISN uint32
	seq    uint32
	ts     time.Time
	stage  int
	off    int
}

// start arms the generator for one session.
func (g *frameGen) start(seed int64, s *tcpasm.Session) {
	g.s = *s
	g.b.Reset(sessionFrameSeed(seed, s))
	g.isn = g.b.RandomISN()
	g.srvISN = g.b.RandomISN()
	g.seq = g.isn + 1
	g.ts = s.Start
	g.stage = stageSYN
	g.off = 0
}

// next appends the session's next frame to dst and returns its capture
// timestamp; ok is false once the teardown has been emitted.
func (g *frameGen) next(dst []byte) (time.Time, []byte, bool, error) {
	if g.stage == stageDone {
		return time.Time{}, nil, false, nil
	}
	cli, srv := g.s.Client, g.s.Server
	var seg packet.Segment
	switch g.stage {
	case stageSYN:
		seg = packet.Segment{Src: cli, Dst: srv, Seq: g.isn, Flags: packet.FlagSYN}
		g.stage = stageSYNACK
	case stageSYNACK:
		seg = packet.Segment{Src: srv, Dst: cli, Seq: g.srvISN, Ack: g.isn + 1, Flags: packet.FlagSYN | packet.FlagACK}
		g.stage = stageACK
	case stageACK:
		seg = packet.Segment{Src: cli, Dst: srv, Seq: g.isn + 1, Ack: g.srvISN + 1, Flags: packet.FlagACK}
		if len(g.s.ClientData) > 0 {
			g.stage = stageData
		} else {
			g.stage = stageFIN
		}
	case stageData:
		data := g.s.ClientData
		end := g.off + frameMSS
		if end > len(data) {
			end = len(data)
		}
		seg = packet.Segment{
			Src: cli, Dst: srv,
			Seq: g.seq, Ack: g.srvISN + 1,
			Flags:   packet.FlagPSH | packet.FlagACK,
			Payload: data[g.off:end],
		}
		g.seq += uint32(end - g.off)
		g.off = end
		if g.off >= len(data) {
			g.stage = stageFIN
		}
	case stageFIN:
		seg = packet.Segment{Src: cli, Dst: srv, Seq: g.seq, Ack: g.srvISN + 1, Flags: packet.FlagFIN | packet.FlagACK}
		g.stage = stageFINACK
	case stageFINACK:
		seg = packet.Segment{Src: srv, Dst: cli, Seq: g.srvISN + 1, Ack: g.seq + 1, Flags: packet.FlagFIN | packet.FlagACK}
		g.stage = stageDone
	}
	frame, err := g.b.BuildTo(dst, seg)
	if err != nil {
		return time.Time{}, nil, false, err
	}
	ts := g.ts
	g.ts = g.ts.Add(20 * time.Millisecond)
	return ts, frame, true, nil
}
