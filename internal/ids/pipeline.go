package ids

import (
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// Event is one exploit event: a TCP session whose client payload matched an
// IDS signature, attributed to the earliest-published matching rule. This is
// the unit the paper counts 146 k of.
type Event struct {
	// Time is the session start (the first captured segment), the paper's
	// event timestamp.
	Time time.Time
	// Src is the scanning client, Dst the telescope endpoint.
	Src packet.Endpoint
	Dst packet.Endpoint
	// SID is the matched signature and Published its release time.
	SID       int
	Published time.Time
	// CVE is the primary CVE attribution ("YYYY-NNNN"), empty when the rule
	// carries no CVE reference.
	CVE string
	// Msg is the rule message.
	Msg string
	// Bytes is the client payload length.
	Bytes int
	// Ambiguous marks an event whose session carried conflicting
	// overlapping retransmits (tcpasm.Session.Ambiguous): the verdict rests
	// on the overlap policy's choice of bytes, not on a uniquely determined
	// stream, so downstream consumers should weigh it accordingly.
	Ambiguous bool
}

// ScanStats summarizes a capture scan.
type ScanStats struct {
	Packets        int
	DecodeErrors   int
	Sessions       int
	MatchedEvents  int
	DistinctCVEs   int
	DistinctSrcIPs int
	// AmbiguousSessions counts scanned sessions (matched or not) flagged
	// ambiguous by reassembly — the loud signal that someone played
	// overlap games against the capture front-end.
	AmbiguousSessions int
}

// ScanCapture replays a capture (classic pcap or pcapng — see
// pcapio.OpenCapture) through reassembly and the engine, returning one Event
// per matched session. This is the paper's post-facto evaluation: the
// capture spans the whole study and the ruleset carries publication dates,
// so matches may predate their rule's release. Single-goroutine and inline,
// it is the reference the parity suites hold the scan spine (scan.go) to.
func ScanCapture(r pcapio.PacketSource, e *Engine) ([]Event, ScanStats, error) {
	asm := tcpasm.NewAssembler(tcpasm.Config{})
	var stats ScanStats
	var dec packet.Packet // reused: reassembly copies what it retains
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, stats, fmt.Errorf("ids: reading capture: %w", err)
		}
		stats.Packets++
		if packet.DecodeInto(&dec, pkt.Data) != nil {
			stats.DecodeErrors++
			continue
		}
		asm.Feed(pkt.Timestamp, &dec)
		if stats.Packets%4096 == 0 {
			asm.Advance(pkt.Timestamp)
		}
	}
	asm.Flush()
	sessions := asm.Sessions()
	events := MatchSessions(sessions, e, &stats)
	return events, stats, nil
}

// MatchSessions evaluates sessions against the engine. stats may be nil.
func MatchSessions(sessions []tcpasm.Session, e *Engine, stats *ScanStats) []Event {
	var events []Event
	for i := range sessions {
		if ev, ok := MatchSession(&sessions[i], e); ok {
			events = append(events, ev)
		}
	}
	setMatchStats(stats, sessions, events)
	return events
}

// MatchSession evaluates one session, returning its attributed event when a
// rule fires. Every path — serial, parallel, and the registry's retroactive
// rescan — builds events here, so the attribution (earliest-published rule,
// primary CVE) cannot diverge and re-derived labels are byte-identical to
// what a cold ingest over the same ruleset would have written.
func MatchSession(s *tcpasm.Session, e *Engine) (Event, bool) {
	m, ok := e.Earliest(s)
	if !ok {
		return Event{}, false
	}
	ev := Event{
		Time:      s.Start,
		Src:       s.Client,
		Dst:       s.Server,
		SID:       m.SID,
		Published: m.Published,
		Msg:       m.Rule.Rule.Msg,
		Bytes:     len(s.ClientData),
		Ambiguous: s.Ambiguous,
	}
	if len(m.CVEs) > 0 {
		ev.CVE = m.CVEs[0]
	}
	return ev, true
}
