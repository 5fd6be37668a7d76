package eventstore

import (
	"cmp"
	"slices"

	"repro/internal/ids"
)

// Compare is the store's canonical event order — by time, then SID, then
// source endpoint — the order Snapshot publishes, segments are sealed in and
// every downstream byte-parity check depends on. Times compare by their
// wall-clock instant (Unix seconds, then nanoseconds), the part of a time
// that survives encoding: neither a Location nor a monotonic reading moves
// an event. It returns -1, 0 or +1 like cmp.Compare.
func Compare(a, b *ids.Event) int {
	if c := cmp.Compare(a.Time.Unix(), b.Time.Unix()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Time.Nanosecond(), b.Time.Nanosecond()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SID, b.SID); c != 0 {
		return c
	}
	if c := a.Src.Addr.Compare(b.Src.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Src.Port, b.Src.Port)
}

// SortEvents sorts events into the canonical order (Compare), stably, so
// equal keys keep their incoming order exactly as Snapshot does.
func SortEvents(events []ids.Event) {
	slices.SortStableFunc(events, func(a, b ids.Event) int { return Compare(&a, &b) })
}

// Ref locates one event of a list of parts: parts[Part][Index]. Its
// unexported fields cache the event's sort key.
type Ref struct {
	sec         int64
	sid         int
	nsec        int32
	Part, Index int32
}

// CanonicalOrder returns a Ref to every event of parts in the order a stable
// sort (SortEvents) of the parts concatenated in order would place them,
// without moving an event: the refs, a few pointer-free words each, are what
// the sort swaps. Ties on the cached key (time, SID) fall to Compare, then to
// (Part, Index), which is the concatenated position. Parts must each hold
// fewer than 2³¹ events.
func CanonicalOrder(parts [][]ids.Event) []Ref {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	refs := make([]Ref, 0, n)
	for pi, p := range parts {
		for i := range p {
			t := p[i].Time
			refs = append(refs, Ref{sec: t.Unix(), sid: p[i].SID, nsec: int32(t.Nanosecond()), Part: int32(pi), Index: int32(i)})
		}
	}
	slices.SortFunc(refs, func(a, b Ref) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.sid, b.sid); c != 0 {
			return c
		}
		if c := Compare(&parts[a.Part][a.Index], &parts[b.Part][b.Index]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Part, b.Part); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return refs
}
