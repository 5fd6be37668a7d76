// Package tcpasm reassembles captured TCP segments into application-layer
// sessions. This is the stage between the telescope's raw pcap and the IDS:
// the paper evaluates Snort signatures over TCP sessions, retaining the
// earliest-published matching signature per session.
//
// The assembler tracks connections by a symmetric flow hash, identifies the
// client as the SYN initiator (falling back to first-packet source when the
// handshake was not captured), buffers out-of-order segments in sequence
// space, tolerates retransmission and overlap, and emits a Session when the
// connection closes (FIN/RST from both or either side) or when the assembler
// is flushed at an idle horizon.
//
// DSCOPE sends no application-layer response, so sessions are dominated by
// client-to-server bytes ("client banner data"); the server stream is still
// reassembled for generality.
//
// Overlap policy and ambiguity. Overlapping retransmits whose bytes agree
// are ordinary TCP; overlapping retransmits whose bytes *disagree* are the
// classic IDS-evasion primitive — the capture alone cannot say which copy
// the endpoint accepted. The assembler always detects such conflicts by
// comparing each overlapping prefix against the bytes already delivered:
// any disagreement increments Session.OverlapConflicts and marks the
// session Ambiguous, so downstream consumers see a loud flag instead of a
// silently guessed stream. Config.OverlapPolicy only picks which copy's
// bytes are retained (first-wins, the historical behavior and the default,
// or last-wins); it never suppresses the flag. Detection is a pure function
// of the per-flow segment sequence, so serial and sharded runs flag — and
// resolve — identically.
package tcpasm

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/packet"
)

// OverlapPolicy selects which copy of a byte is retained when overlapping
// segments carry conflicting content. Either way the conflict itself is
// surfaced via Session.OverlapConflicts and Session.Ambiguous.
type OverlapPolicy uint8

const (
	// OverlapFirstWins keeps the first delivered copy of each byte — the
	// assembler's historical behavior and the default.
	OverlapFirstWins OverlapPolicy = iota
	// OverlapLastWins lets a later overlapping segment overwrite retained
	// bytes, modeling a receiver that honors the retransmission.
	OverlapLastWins
)

// String returns the CLI spelling of the policy.
func (p OverlapPolicy) String() string {
	if p == OverlapLastWins {
		return "last-wins"
	}
	return "first-wins"
}

// ParseOverlapPolicy parses the CLI spelling ("first-wins" or "last-wins";
// empty selects the default).
func ParseOverlapPolicy(s string) (OverlapPolicy, error) {
	switch s {
	case "", "first-wins", "first":
		return OverlapFirstWins, nil
	case "last-wins", "last":
		return OverlapLastWins, nil
	}
	return 0, fmt.Errorf("tcpasm: unknown overlap policy %q (want first-wins or last-wins)", s)
}

// Session is a reassembled TCP conversation.
type Session struct {
	// Client and Server identify the two endpoints. Client is the
	// connection initiator.
	Client packet.Endpoint
	Server packet.Endpoint
	// Start is the timestamp of the first captured segment, End of the last.
	Start time.Time
	End   time.Time
	// ClientData is the in-order application-layer byte stream from client
	// to server; ServerData the reverse direction.
	ClientData []byte
	ServerData []byte
	// Packets is the number of captured segments in the conversation.
	Packets int
	// Complete reports whether the three-way handshake was observed.
	Complete bool
	// Closed reports whether the conversation ended with FIN or RST (as
	// opposed to being flushed at an idle timeout).
	Closed bool
	// DroppedBytes counts payload bytes the assembler could not retain
	// (stream cap reached or the out-of-order buffer overflowed). Nonzero
	// values mean ClientData/ServerData are incomplete — the IDS treats
	// such sessions normally, but audits can weigh them differently.
	DroppedBytes int
	// OverlapConflicts counts segments (both directions) whose overlap with
	// already-delivered bytes disagreed — the retransmission-with-different-
	// content evasion primitive.
	OverlapConflicts int
	// Ambiguous reports that the capture does not uniquely determine the
	// reassembled streams: at least one overlapping retransmit carried
	// conflicting bytes, so an endpoint may have accepted either copy.
	// ClientData/ServerData hold the copy the configured OverlapPolicy
	// picked; verdicts derived from them should be treated as suspect.
	Ambiguous bool
}

// Config tunes the assembler.
type Config struct {
	// MaxStreamBytes caps the bytes retained per direction per session.
	// Bytes past the cap are dropped (counted, not stored). Zero means the
	// default of 1 MiB. The telescope emulates an unresponsive service, so
	// real sessions are small; the cap guards against pathological input.
	MaxStreamBytes int
	// IdleTimeout closes a session that has seen no segment for this long
	// when Advance is called. Zero means the default of 10 minutes (the
	// DSCOPE instance lifetime: nothing can outlive its instance).
	IdleTimeout time.Duration
	// MaxPending caps buffered out-of-order segments per direction. Zero
	// means the default of 64.
	MaxPending int
	// OverlapPolicy picks which copy is retained when overlapping segments
	// conflict (see the package comment). The zero value is
	// OverlapFirstWins. Conflict detection is unconditional — the policy
	// only chooses the bytes, never whether the session is flagged.
	OverlapPolicy OverlapPolicy
	// Shards is how many independent assembler shards the parallel
	// front-end (NewSharded) fans the flows of its time-ordered feeders
	// across. The serial Assembler ignores it. Zero means
	// min(8, GOMAXPROCS); session output is identical for every value (see
	// Sharded).
	Shards int
	// Emit, when set, switches the sharded front-end to streaming emission:
	// completed sessions are handed to Emit in batches as shard workers
	// produce them instead of accumulating until Wait (which then returns
	// nil). Emit is called concurrently from the shard workers with no
	// cross-shard ordering guarantee; each call owns its slice. Every
	// session is delivered exactly once. The serial Assembler ignores it.
	Emit func([]Session)
}

func (c Config) withDefaults() Config {
	if c.MaxStreamBytes == 0 {
		c.MaxStreamBytes = 1 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.MaxPending == 0 {
		c.MaxPending = 64
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	return c
}

// Assembler consumes decoded packets and emits Sessions.
type Assembler struct {
	cfg   Config
	conns connTable
	free  []*conn // finished conns, zeroed for reuse
	dead  []*conn // Advance/Flush scratch: conns to finish
	out   []Session
	// outHint is the previous hand-off's length: the next queue starts with
	// that capacity instead of regrowing from nil.
	outHint int
}

// NewAssembler creates an Assembler with the given configuration.
func NewAssembler(cfg Config) *Assembler {
	return &Assembler{cfg: cfg.withDefaults()}
}

// halfStream is one direction of a connection.
type halfStream struct {
	// nextSeq is the next expected sequence number once initialized.
	nextSeq  uint32
	seqValid bool
	data     []byte
	dropped  int
	// pending holds buffered out-of-order segments in arrival order;
	// drainPending orders it by int32(seq − nextSeq) before each drain.
	pending   []pendingSeg
	sawFin    bool
	finSeq    uint32
	conflicts int
}

type pendingSeg struct {
	seq     uint32
	payload []byte
}

type conn struct {
	h      uint64 // flowWord, the connTable key
	client packet.Endpoint
	server packet.Endpoint
	// start and last are the first and latest frames' own timestamps, kept
	// for the Session untouched; idle checks compare lastNs, last's
	// UnixNano, instead of doing time.Time arithmetic on every frame.
	start    time.Time
	last     time.Time
	lastNs   int64
	packets  int
	complete bool
	synSeen  bool
	c2s      halfStream
	s2c      halfStream
	closed   bool
}

// joins reports whether c is the connection between endpoints a and b.
func (c *conn) joins(a, b packet.Endpoint) bool {
	return c.client == a && c.server == b || c.client == b && c.server == a
}

// Feed processes one decoded packet captured at ts. Completed sessions are
// queued; drain them with Sessions.
func (a *Assembler) Feed(ts time.Time, p *packet.Packet) {
	a.feed(ts, ts.UnixNano(), p, flowWord(p.Flow()))
}

// feed is Feed with ts's UnixNano and the flow word h already computed: the
// sharded front-end's feeder hashes each frame once, for routing, and hands
// the word to the shard with the frame.
func (a *Assembler) feed(ts time.Time, tsNs int64, p *packet.Packet, h uint64) {
	flow := p.Flow()
	c := a.conns.get(h, flow.Src, flow.Dst)
	if c != nil && tsNs-c.lastNs >= int64(a.cfg.IdleTimeout) {
		// The gap alone ends the old conversation: an Advance at any moment
		// inside it would have idled the connection out, so splitting here
		// makes session output independent of Advance cadence. That
		// invariance is what lets the sharded front-end advance each shard
		// on its own schedule and still emit byte-identical sessions.
		a.finish(c)
		c = nil
	}
	if c == nil {
		if n := len(a.free); n > 0 {
			c, a.free = a.free[n-1], a.free[:n-1]
		} else {
			c = new(conn)
		}
		c.h, c.start = h, ts
		// Without a SYN this is a mid-stream pickup: assume the first seen
		// source is the client.
		c.client, c.server = flow.Src, flow.Dst
		c.synSeen = p.TCP.SYN() && !p.TCP.ACK()
		a.conns.insert(c)
	}
	c.last, c.lastNs = ts, tsNs
	c.packets++

	fromClient := flow.Src == c.client
	if p.TCP.SYN() && !p.TCP.ACK() && !c.synSeen {
		// A SYN after mid-stream pickup re-anchors the client.
		c.client, c.server = flow.Src, flow.Dst
		c.synSeen = true
		fromClient = true
	}
	if p.TCP.SYN() && p.TCP.ACK() && c.synSeen {
		c.complete = true
	}

	dir := &c.c2s
	if !fromClient {
		dir = &c.s2c
	}
	a.feedDir(dir, p.TCP)

	if p.TCP.RST() || c.c2s.sawFin && c.s2c.sawFin {
		c.closed = true
		a.finish(c)
	}
}

// feedDir integrates one segment into a direction's stream.
func (a *Assembler) feedDir(h *halfStream, t *packet.TCP) {
	seq := t.Seq
	payload := t.LayerPayload()

	if t.SYN() {
		// SYN consumes one sequence number; data begins at seq+1.
		h.nextSeq = seq + 1
		h.seqValid = true
		return
	}
	if !h.seqValid {
		// Mid-stream pickup: anchor at this segment.
		h.nextSeq = seq
		h.seqValid = true
	}
	if len(payload) > 0 {
		a.insert(h, seq, payload)
	}
	if t.FIN() {
		h.sawFin = true
		h.finSeq = seq + uint32(len(payload))
	}
}

// insert places payload at seq, delivering in-order bytes and buffering
// out-of-order ones.
func (a *Assembler) insert(h *halfStream, seq uint32, payload []byte) {
	diff := int32(seq - h.nextSeq)
	switch {
	case diff == 0:
		a.deliver(h, payload)
	case diff < 0:
		// Retransmission or partial overlap: compare the overlapping prefix
		// against what was already delivered (flagging a conflict when they
		// disagree), then deliver only the new suffix.
		if rest := a.resolveOverlap(h, uint32(-diff), payload); len(rest) > 0 {
			a.deliver(h, rest)
		}
		return
	default:
		// Future segment: buffer a copy (the decode buffer may be reused).
		if len(h.pending) < a.cfg.MaxPending {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			h.pending = append(h.pending, pendingSeg{seq: seq, payload: cp})
		} else {
			h.dropped += len(payload)
		}
		return
	}
	a.drainPending(h)
}

// resolveOverlap handles a segment whose first overlap bytes precede the
// stream head: the overlapping prefix is compared byte-for-byte against the
// retained stream, a disagreement counts one conflict (per segment) and the
// overlap policy decides whether the new copy overwrites the old, and the
// not-yet-delivered suffix (possibly empty) is returned. The comparison is
// skipped — never misreported — when the overlapped bytes are not retained:
// before a mid-stream anchor, or after any bytes were dropped (stream cap /
// pending overflow), where delivered offsets no longer map into data.
func (a *Assembler) resolveOverlap(h *halfStream, overlap uint32, payload []byte) []byte {
	cmp := len(payload)
	if uint32(cmp) > overlap {
		cmp = int(overlap)
	}
	if h.dropped == 0 {
		// payload[i] corresponds to h.data[idx+i]; idx < 0 means the
		// segment reaches below the retained window (mid-stream pickup).
		idx := len(h.data) - int(overlap)
		off := 0
		if idx < 0 {
			off = -idx
			idx = 0
		}
		conflict := false
		for i := off; i < cmp; i++ {
			if h.data[idx+i-off] != payload[i] {
				conflict = true
				if a.cfg.OverlapPolicy != OverlapLastWins {
					break
				}
				h.data[idx+i-off] = payload[i]
			}
		}
		if conflict {
			h.conflicts++
		}
	}
	if uint32(len(payload)) > overlap {
		return payload[overlap:]
	}
	return nil
}

// deliver appends in-order bytes, honoring the per-stream cap, and advances
// the expected sequence number.
func (a *Assembler) deliver(h *halfStream, payload []byte) {
	h.nextSeq += uint32(len(payload))
	room := a.cfg.MaxStreamBytes - len(h.data)
	if room <= 0 {
		h.dropped += len(payload)
		return
	}
	if len(payload) > room {
		h.dropped += len(payload) - room
		payload = payload[:room]
	}
	h.data = append(h.data, payload...)
}

// drainPending delivers the buffered segments that have become contiguous
// with the stream head. Ordered by distance from the head, they form
// pending's front: one pass stops at the first segment still ahead of the
// head, and every segment behind it is further ahead still, since delivery
// only moves the head by bytes that precede it.
func (a *Assembler) drainPending(h *halfStream) {
	if len(h.pending) == 0 {
		return
	}
	h.sortPending()
	i := 0
	for ; i < len(h.pending); i++ {
		seg := h.pending[i]
		diff := int32(seg.seq - h.nextSeq)
		if diff > 0 {
			break
		}
		if diff == 0 {
			a.deliver(h, seg.payload)
		} else if rest := a.resolveOverlap(h, uint32(-diff), seg.payload); len(rest) > 0 {
			// Same conflict check as the in-order path; fully duplicate data
			// (after the check) is discarded.
			a.deliver(h, rest)
		}
	}
	n := copy(h.pending, h.pending[i:])
	clear(h.pending[n:])
	h.pending = h.pending[:n]
}

// sortPending orders pending by int32(seq − nextSeq) with an insertion
// sort: pending never exceeds MaxPending entries, an already ordered list
// costs one comparison per segment, and equal keys keep arrival order.
func (h *halfStream) sortPending() {
	for i := 1; i < len(h.pending); i++ {
		seg := h.pending[i]
		key := int32(seg.seq - h.nextSeq)
		j := i
		for ; j > 0 && int32(h.pending[j-1].seq-h.nextSeq) > key; j-- {
			h.pending[j] = h.pending[j-1]
		}
		h.pending[j] = seg
	}
}

// finish emits the session for c, forgets the connection and recycles c:
// the session takes the stream buffers, and c is zeroed onto the free list.
func (a *Assembler) finish(c *conn) {
	if a.out == nil {
		a.out = make([]Session, 0, a.outHint)
	}
	a.out = append(a.out, Session{
		Client:           c.client,
		Server:           c.server,
		Start:            c.start,
		End:              c.last,
		ClientData:       c.c2s.data,
		ServerData:       c.s2c.data,
		Packets:          c.packets,
		Complete:         c.complete,
		Closed:           c.closed,
		DroppedBytes:     c.c2s.dropped + c.s2c.dropped,
		OverlapConflicts: c.c2s.conflicts + c.s2c.conflicts,
		Ambiguous:        c.c2s.conflicts+c.s2c.conflicts > 0,
	})
	a.conns.remove(c)
	*c = conn{}
	a.free = append(a.free, c)
}

// Advance informs the assembler of the current capture time, closing any
// connection idle past the configured timeout.
func (a *Assembler) Advance(now time.Time) {
	nowNs, idle := now.UnixNano(), int64(a.cfg.IdleTimeout)
	a.finishAll(func(c *conn) bool { return nowNs-c.lastNs >= idle })
}

// finishAll finishes every open connection keep selects: it collects them
// first and finishes them after the scan, since each finish reshapes the
// table. Table order is arbitrary, but Sessions sorts.
func (a *Assembler) finishAll(keep func(*conn) bool) {
	a.dead = a.conns.appendIf(a.dead[:0], keep)
	for _, c := range a.dead {
		a.finish(c)
	}
}

// Drain advances the idle horizon to now and returns every session
// completed so far (FIN/RST-closed or newly idled out), ordered by end
// time. This is the streaming counterpart of Flush+Sessions: a live ingest
// pipeline calls Drain after each batch of packets so finished
// conversations flow downstream while long-lived ones keep assembling.
func (a *Assembler) Drain(now time.Time) []Session {
	a.Advance(now)
	return a.Sessions()
}

// Flush closes all open connections regardless of idleness. Call at end of
// capture.
func (a *Assembler) Flush() {
	a.finishAll(func(*conn) bool { return true })
}

// Sessions returns and clears the queue of completed sessions, ordered by
// session end time (table order during Advance and Flush is arbitrary, and
// downstream analyses index sessions temporally). The caller owns the
// slice; the next queue, once a session completes, starts with room for as
// many sessions.
func (a *Assembler) Sessions() []Session {
	s := a.out
	if len(s) == 0 {
		return nil
	}
	a.out, a.outHint = nil, len(s)
	SortSessions(s)
	return s
}

// SortSessions orders sessions by (End, Start, Client, Server) — a total
// order over distinct conversations, so the serial path and any merge of
// per-shard or per-source outputs land in exactly the same order.
func SortSessions(s []Session) {
	slices.SortFunc(s, func(a, b Session) int { return compareSessions(&a, &b) })
}

func compareSessions(a, b *Session) int {
	if c := a.End.Compare(b.End); c != 0 {
		return c
	}
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	if c := a.Client.Addr.Compare(b.Client.Addr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Client.Port, b.Client.Port); c != 0 {
		return c
	}
	if c := a.Server.Addr.Compare(b.Server.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Server.Port, b.Server.Port)
}

// OpenConns reports the number of connections still being tracked.
func (a *Assembler) OpenConns() int { return a.conns.n }
