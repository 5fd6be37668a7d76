package ids

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net/netip"
	"sort"

	"repro/internal/tcpasm"
	"repro/internal/wal"
)

// StatsBuilder accumulates ScanStats incrementally. It is the one aggregation
// behind every ScanStats — batch matchers, streamed scan, incremental read
// path, timeline checkpoints — so no two paths can drift: a session counts
// once, an event counts once, and distinct CVEs and source addresses are
// deduplicated across every batch fed to the builder.
type StatsBuilder struct {
	sessions  int
	matched   int
	ambiguous int
	cves      map[string]struct{}
	srcs      map[netip.Addr]struct{}
}

// NewStatsBuilder returns an empty builder.
func NewStatsBuilder() *StatsBuilder {
	return &StatsBuilder{
		cves: make(map[string]struct{}),
		srcs: make(map[netip.Addr]struct{}),
	}
}

// AddSessions records n scanned sessions (matched or not).
func (b *StatsBuilder) AddSessions(n int) { b.sessions += n }

// AddAmbiguous records n ambiguous sessions among those already counted.
func (b *StatsBuilder) AddAmbiguous(n int) { b.ambiguous += n }

// AddSessionBatch records a batch of scanned sessions, counting the
// ambiguous ones — the one-call form every scan path uses so the ambiguity
// tally cannot be forgotten.
func (b *StatsBuilder) AddSessionBatch(sessions []tcpasm.Session) {
	b.sessions += len(sessions)
	for i := range sessions {
		if sessions[i].Ambiguous {
			b.ambiguous++
		}
	}
}

// AddEvents folds a batch of attributed events into the totals.
func (b *StatsBuilder) AddEvents(events []Event) {
	b.matched += len(events)
	for i := range events {
		if events[i].CVE != "" {
			b.cves[events[i].CVE] = struct{}{}
		}
		b.srcs[events[i].Src.Addr] = struct{}{}
	}
}

// Clone returns an independent copy of the builder's state.
func (b *StatsBuilder) Clone() *StatsBuilder {
	c := *b
	c.cves, c.srcs = maps.Clone(b.cves), maps.Clone(b.srcs)
	return &c
}

// AppendBinary appends a deterministic binary encoding of the builder's
// state to buf — the timeline checkpoint format. Equal states encode to
// equal bytes (sets are written sorted).
func (b *StatsBuilder) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.sessions))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.matched))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.ambiguous))
	cves := make([]string, 0, len(b.cves))
	for cve := range b.cves {
		cves = append(cves, cve)
	}
	sort.Strings(cves)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cves)))
	for _, cve := range cves {
		buf = wal.AppendString16(buf, cve)
	}
	srcs := make([][]byte, 0, len(b.srcs))
	for src := range b.srcs {
		srcs = append(srcs, wal.AppendAddr(nil, src))
	}
	// Sorting the encoded fields orders by length, then address bytes.
	sort.Slice(srcs, func(i, j int) bool { return string(srcs[i]) < string(srcs[j]) })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, src := range srcs {
		buf = append(buf, src...)
	}
	return buf
}

// DecodeStatsBuilder decodes an AppendBinary encoding, returning the builder
// and the remaining bytes. It returns an error (never panics) on malformed
// input, since encodings come off disk.
func DecodeStatsBuilder(b []byte) (*StatsBuilder, []byte, error) {
	c := wal.NewCursor(b)
	sb := NewStatsBuilder()
	sb.sessions = int(c.U64())
	sb.matched = int(c.U64())
	sb.ambiguous = int(c.U64())
	for n := c.Count(2); n > 0; n-- {
		sb.cves[c.String16()] = struct{}{}
	}
	for n := c.Count(1); n > 0; n-- {
		sb.srcs[c.Addr()] = struct{}{}
	}
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("ids: stats encoding: %w", err)
	}
	return sb, c.Rest(), nil
}

// Stats returns the aggregate. The builder remains usable afterwards.
func (b *StatsBuilder) Stats() ScanStats {
	return ScanStats{
		Sessions:          b.sessions,
		MatchedEvents:     b.matched,
		DistinctCVEs:      len(b.cves),
		DistinctSrcIPs:    len(b.srcs),
		AmbiguousSessions: b.ambiguous,
	}
}

// fillMatchStats overwrites stats' match-derived fields with the builder's
// aggregate; the capture-derived Packets and DecodeErrors stay.
func (b *StatsBuilder) fillMatchStats(stats *ScanStats) {
	agg := b.Stats()
	agg.Packets, agg.DecodeErrors = stats.Packets, stats.DecodeErrors
	*stats = agg
}

// setMatchStats fills the match-derived fields of stats for one batch scan.
// stats may be nil.
func setMatchStats(stats *ScanStats, sessions []tcpasm.Session, events []Event) {
	if stats == nil {
		return
	}
	b := NewStatsBuilder()
	b.AddSessionBatch(sessions)
	b.AddEvents(events)
	b.fillMatchStats(stats)
}
