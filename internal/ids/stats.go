package ids

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/tcpasm"
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

// Merge folds another builder's accumulated state into b, deduplicating
// distinct CVEs and sources across both — the same result as feeding every
// batch of both builders to one. o remains usable afterwards.
func (b *StatsBuilder) Merge(o *StatsBuilder) {
	b.sessions += o.sessions
	b.matched += o.matched
	b.ambiguous += o.ambiguous
	for cve := range o.cves {
		b.cves[cve] = struct{}{}
	}
	for src := range o.srcs {
		b.srcs[src] = struct{}{}
	}
}

// Clone returns an independent copy of the builder's state.
func (b *StatsBuilder) Clone() *StatsBuilder {
	c := NewStatsBuilder()
	c.Merge(b)
	return c
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
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cve)))
		buf = append(buf, cve...)
	}
	srcs := make([][]byte, 0, len(b.srcs))
	for src := range b.srcs {
		srcs = append(srcs, src.AsSlice()) // nil for the zero Addr
	}
	sort.Slice(srcs, func(i, j int) bool {
		if len(srcs[i]) != len(srcs[j]) {
			return len(srcs[i]) < len(srcs[j])
		}
		for k := range srcs[i] {
			if srcs[i][k] != srcs[j][k] {
				return srcs[i][k] < srcs[j][k]
			}
		}
		return false
	})
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(srcs)))
	for _, src := range srcs {
		buf = append(buf, byte(len(src)))
		buf = append(buf, src...)
	}
	return buf
}

// DecodeStatsBuilder decodes an AppendBinary encoding, returning the builder
// and the remaining bytes. It returns an error (never panics) on malformed
// input, since encodings come off disk.
func DecodeStatsBuilder(b []byte) (*StatsBuilder, []byte, error) {
	sb := NewStatsBuilder()
	need := func(n int) ([]byte, error) {
		if len(b) < n {
			return nil, fmt.Errorf("ids: stats encoding truncated (%d of %d bytes)", len(b), n)
		}
		out := b[:n]
		b = b[n:]
		return out, nil
	}
	hdr, err := need(24)
	if err != nil {
		return nil, nil, err
	}
	sb.sessions = int(binary.LittleEndian.Uint64(hdr[0:8]))
	sb.matched = int(binary.LittleEndian.Uint64(hdr[8:16]))
	sb.ambiguous = int(binary.LittleEndian.Uint64(hdr[16:24]))
	nb, err := need(4)
	if err != nil {
		return nil, nil, err
	}
	for n := binary.LittleEndian.Uint32(nb); n > 0; n-- {
		lb, err := need(2)
		if err != nil {
			return nil, nil, err
		}
		cb, err := need(int(binary.LittleEndian.Uint16(lb)))
		if err != nil {
			return nil, nil, err
		}
		sb.cves[string(cb)] = struct{}{}
	}
	if nb, err = need(4); err != nil {
		return nil, nil, err
	}
	for n := binary.LittleEndian.Uint32(nb); n > 0; n-- {
		lb, err := need(1)
		if err != nil {
			return nil, nil, err
		}
		ab, err := need(int(lb[0]))
		if err != nil {
			return nil, nil, err
		}
		var src netip.Addr
		if len(ab) > 0 {
			var ok bool
			if src, ok = netip.AddrFromSlice(ab); !ok {
				return nil, nil, fmt.Errorf("ids: stats encoding has bad address length %d", len(ab))
			}
		}
		sb.srcs[src] = struct{}{}
	}
	return sb, b, nil
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
