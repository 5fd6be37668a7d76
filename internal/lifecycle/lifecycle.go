// Package lifecycle assembles per-CVE vulnerability lifecycles: the six
// CERT-model events — Vendor awareness (V), Fix ready (F), Fix deployed (D),
// Public awareness (P), Exploit public (X), and Attacks (A) — with the
// paper's Section 5 heuristics:
//
//	V = earliest of public awareness, fix availability, or a known
//	    vendor-disclosure date (the IDS vendor's own reports);
//	F = IDS rule availability;
//	D = F, under the assumption of immediate rule installation;
//	P = public awareness per the Suciu et al. crawl;
//	X = public exploit availability per the same crawl;
//	A = first telescope-observed attack.
//
// Timelines come from two sources that must agree: the embedded Appendix E
// offsets (the paper's own measurements) and the live pipeline (telescope →
// IDS → events). Both produce the same Timeline type.
package lifecycle

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/datasets"
	"repro/internal/ids"
	"repro/internal/wal"
)

// EventType identifies one of the six lifecycle events.
type EventType int

// The six events of the CERT model.
const (
	VendorAware EventType = iota // V
	FixReady                     // F
	FixDeployed                  // D
	PublicAware                  // P
	ExploitPub                   // X
	Attacks                      // A
	numEvents
)

// Letter returns the event's single-letter name used in the paper.
func (e EventType) Letter() string {
	switch e {
	case VendorAware:
		return "V"
	case FixReady:
		return "F"
	case FixDeployed:
		return "D"
	case PublicAware:
		return "P"
	case ExploitPub:
		return "X"
	case Attacks:
		return "A"
	default:
		return "?"
	}
}

// String returns the event's descriptive name.
func (e EventType) String() string {
	switch e {
	case VendorAware:
		return "Vendor Awareness"
	case FixReady:
		return "Fix Ready"
	case FixDeployed:
		return "Fix Deployed"
	case PublicAware:
		return "Public Awareness"
	case ExploitPub:
		return "Exploit Public"
	case Attacks:
		return "Attacks"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// EventTypes lists the six events in canonical order.
func EventTypes() []EventType {
	return []EventType{VendorAware, FixReady, FixDeployed, PublicAware, ExploitPub, Attacks}
}

// Timeline is one CVE's lifecycle. Events the data cannot establish are
// absent (Known false).
type Timeline struct {
	CVE    string
	Events [numEvents]struct {
		Known bool
		At    time.Time
	}
	// Impact is the CVSS base score, carried for impact-stratified views.
	Impact float64
	// EventCount is the exploit-event volume attributed to the CVE.
	EventCount int
	// TalosDisclosed marks IDS-vendor-disclosed CVEs.
	TalosDisclosed bool
}

// Set records an event occurrence.
func (t *Timeline) Set(e EventType, at time.Time) {
	t.Events[e].Known = true
	t.Events[e].At = at
}

// Get returns the event time and whether it is known.
func (t *Timeline) Get(e EventType) (time.Time, bool) {
	return t.Events[e].At, t.Events[e].Known
}

// Diff returns the signed duration of b minus a when both are known.
func (t *Timeline) Diff(b, a EventType) (time.Duration, bool) {
	tb, okB := t.Get(b)
	ta, okA := t.Get(a)
	if !okA || !okB {
		return 0, false
	}
	return tb.Sub(ta), true
}

// Before reports whether event a strictly precedes event b; ok is false if
// either is unknown.
func (t *Timeline) Before(a, b EventType) (satisfied, ok bool) {
	ta, okA := t.Get(a)
	tb, okB := t.Get(b)
	if !okA || !okB {
		return false, false
	}
	return ta.Before(tb), true
}

// FromStudy builds the timeline of one Appendix E row using the paper's
// heuristics.
func FromStudy(c datasets.StudyCVE) Timeline {
	t := Timeline{
		CVE:            c.ID,
		Impact:         c.Impact,
		EventCount:     c.Events,
		TalosDisclosed: c.TalosDisclosed,
	}
	t.Set(PublicAware, c.Published)
	if c.DMinusP.Known {
		f := c.Published.Add(c.DMinusP.D)
		t.Set(FixReady, f)
		t.Set(FixDeployed, f) // immediate-installation assumption
	}
	if c.XMinusP.Known {
		t.Set(ExploitPub, c.Published.Add(c.XMinusP.D))
	}
	if c.AMinusP.Known {
		t.Set(Attacks, c.Published.Add(c.AMinusP.D))
	}
	// V is the earliest of P and F (disclosure dates beyond these are not
	// separately recorded in the appendix; for Talos-disclosed CVEs the
	// rule availability *is* the disclosure evidence).
	v := c.Published
	if f, ok := t.Get(FixReady); ok && f.Before(v) {
		v = f
	}
	t.Set(VendorAware, v)
	return t
}

// StudyTimelines builds timelines for all 63 study CVEs.
func StudyTimelines() []Timeline {
	cves := datasets.StudyCVEs()
	out := make([]Timeline, 0, len(cves))
	for _, c := range cves {
		out = append(out, FromStudy(c))
	}
	return out
}

// FromPipeline builds timelines from measured pipeline outputs: exploit
// events attributed by the IDS plus rule-publication times, joined with the
// study metadata for P and X. Only CVEs with observed traffic appear.
//
// It is a thin wrapper over Builder, so batch, incremental, and
// merged-partial aggregations cannot drift: any way of splitting events
// across builders yields the identical timeline set.
func FromPipeline(events []ids.Event, rulePub map[int]time.Time) []Timeline {
	b := NewBuilder()
	b.AddEvents(events, rulePub)
	return b.Timelines()
}

// Builder accumulates the per-CVE lifecycle aggregate incrementally: first
// attack time, event count, and earliest matched-rule publication. It is the
// event-derived half of FromPipeline in a form that supports streaming
// (AddEvents per batch), merging (partial aggregates combine), and
// checkpointing (AppendBinary/DecodeBuilder round-trip the state byte-
// deterministically) — the machinery the timeline subsystem's as-of
// snapshots are built on. The aggregate is a commutative monoid over event
// multisets: counts add, first-times take the minimum, so event order and
// batch boundaries never change the result.
type Builder struct {
	byCVE map[string]*pipelineAcc
}

type pipelineAcc struct {
	firstAttack time.Time
	count       int
	firstRule   time.Time
	hasRule     bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{byCVE: map[string]*pipelineAcc{}} }

// AddEvents folds a batch of attributed events into the aggregate. rulePub
// maps SIDs to publication times, as in FromPipeline. See AddEvent.
func (b *Builder) AddEvents(events []ids.Event, rulePub map[int]time.Time) {
	for i := range events {
		b.AddEvent(&events[i], rulePub)
	}
}

// AddEvent folds one attributed event into the aggregate; an unattributed
// event (no CVE) is ignored. A SID absent from rulePub falls back to the
// event's own Published stamp when set — registry-published rules are not in
// the static study map, but their events carry the journal's publication
// time. It keeps ev's CVE string but not ev itself.
func (b *Builder) AddEvent(ev *ids.Event, rulePub map[int]time.Time) {
	if ev.CVE == "" {
		return
	}
	a, ok := b.byCVE[ev.CVE]
	if !ok {
		a = &pipelineAcc{firstAttack: ev.Time}
		b.byCVE[ev.CVE] = a
	}
	if ev.Time.Before(a.firstAttack) {
		a.firstAttack = ev.Time
	}
	a.count++
	pub, ok := rulePub[ev.SID]
	if !ok && !ev.Published.IsZero() {
		pub, ok = ev.Published, true
	}
	if ok && (!a.hasRule || pub.Before(a.firstRule)) {
		a.firstRule = pub
		a.hasRule = true
	}
}

// Merge folds another builder's aggregate into b — the result equals
// feeding both builders' events to one. o remains usable afterwards.
func (b *Builder) Merge(o *Builder) {
	for cve, oa := range o.byCVE {
		a, ok := b.byCVE[cve]
		if !ok {
			cp := *oa
			b.byCVE[cve] = &cp
			continue
		}
		if oa.firstAttack.Before(a.firstAttack) {
			a.firstAttack = oa.firstAttack
		}
		a.count += oa.count
		if oa.hasRule && (!a.hasRule || oa.firstRule.Before(a.firstRule)) {
			a.firstRule = oa.firstRule
			a.hasRule = true
		}
	}
}

// Clone returns an independent copy of the builder's state.
func (b *Builder) Clone() *Builder {
	c := NewBuilder()
	c.Merge(b)
	return c
}

// EventCount returns the number of attributed events folded in so far.
func (b *Builder) EventCount() int {
	n := 0
	for _, a := range b.byCVE {
		n += a.count
	}
	return n
}

// Timelines materializes the timeline set from the aggregate, applying the
// paper's Section 5 heuristics and the study metadata join, sorted by CVE —
// exactly FromPipeline's output for the accumulated events.
func (b *Builder) Timelines() []Timeline {
	var out []Timeline
	for cve, a := range b.byCVE {
		t := Timeline{CVE: cve, EventCount: a.count}
		if meta := datasets.StudyCVEByID(cve); meta != nil {
			t.Impact = meta.Impact
			t.TalosDisclosed = meta.TalosDisclosed
			t.Set(PublicAware, meta.Published)
			if meta.XMinusP.Known {
				t.Set(ExploitPub, meta.Published.Add(meta.XMinusP.D))
			}
		}
		t.Set(Attacks, a.firstAttack)
		if a.hasRule && a.firstRule.Before(neverPublishedCutoff) {
			t.Set(FixReady, a.firstRule)
			t.Set(FixDeployed, a.firstRule)
		}
		if p, ok := t.Get(PublicAware); ok {
			v := p
			if f, ok := t.Get(FixReady); ok && f.Before(v) {
				v = f
			}
			t.Set(VendorAware, v)
		}
		out = append(out, t)
	}
	sortTimelines(out)
	return out
}

// AppendBinary appends a deterministic binary encoding of the aggregate to
// buf (CVEs sorted; times as seconds+nanoseconds so the full time.Time range
// round-trips). DecodeBuilder reverses it.
func (b *Builder) AppendBinary(buf []byte) []byte {
	cves := make([]string, 0, len(b.byCVE))
	for cve := range b.byCVE {
		cves = append(cves, cve)
	}
	sort.Strings(cves)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cves)))
	for _, cve := range cves {
		a := b.byCVE[cve]
		buf = wal.AppendString16(buf, cve)
		buf = wal.AppendTime(buf, a.firstAttack)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.count))
		if a.hasRule {
			buf = append(buf, 1)
			buf = wal.AppendTime(buf, a.firstRule)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeBuilder decodes an AppendBinary encoding, returning the builder and
// the remaining bytes. It returns an error (never panics) on malformed
// input, since encodings come off disk.
func DecodeBuilder(raw []byte) (*Builder, []byte, error) {
	c := wal.NewCursor(raw)
	b := NewBuilder()
	// An entry is at least a string16, a time, a count and the hasRule byte.
	for n := c.Count(2 + 12 + 8 + 1); n > 0 && c.Err() == nil; n-- {
		cve := c.String16()
		if _, dup := b.byCVE[cve]; dup {
			return nil, nil, fmt.Errorf("lifecycle: aggregate encoding repeats CVE %q", cve)
		}
		a := &pipelineAcc{firstAttack: c.Time(), count: int(c.U64())}
		switch hasRule := c.U8(); hasRule {
		case 1:
			a.hasRule = true
			a.firstRule = c.Time()
		case 0:
		default:
			return nil, nil, fmt.Errorf("lifecycle: aggregate encoding has bad hasRule byte %d", hasRule)
		}
		b.byCVE[cve] = a
	}
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("lifecycle: aggregate encoding: %w", err)
	}
	return b, c.Rest(), nil
}

// neverPublishedCutoff separates real rule publications from the
// "never published during the study" sentinel used by the study ruleset.
var neverPublishedCutoff = time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC)

func sortTimelines(ts []Timeline) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].CVE < ts[j].CVE })
}
