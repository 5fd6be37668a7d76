package tcpasm

import "repro/internal/packet"

// connTable is the Assembler's connection table: open addressing with
// linear probing over a power-of-two slot array, keyed by the connection's
// symmetric flow word (flowWord), so both directions of a connection probe
// from the same home slot without ordering their endpoints. A word match is
// confirmed by comparing endpoints, in either order. Deletion shifts the
// rest of the probe run back over the hole instead of leaving a tombstone,
// so every probe ends at the first empty slot.
type connTable struct {
	slots []connSlot // len is 0 or a power of two
	n     int        // occupied slots
}

// connSlot caches the flow word beside the conn so probes compare words
// without touching the conn; c == nil marks an empty slot.
type connSlot struct {
	h uint64
	c *conn
}

// minConnSlots is the table's first allocation; it doubles whenever an
// insert would fill more than half the slots.
const minConnSlots = 64

// get returns the open connection between endpoints a and b (either
// direction) whose flow word is h, or nil.
func (t *connTable) get(h uint64, a, b packet.Endpoint) *conn {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.c == nil {
			return nil
		}
		if s.h == h && s.c.joins(a, b) {
			return s.c
		}
	}
}

// insert adds c under its flow word c.h. c must not already be present.
func (t *connTable) insert(c *conn) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.place(connSlot{h: c.h, c: c})
	t.n++
}

// place puts s in the first empty slot of its probe run.
func (t *connTable) place(s connSlot) {
	mask := uint64(len(t.slots) - 1)
	i := s.h & mask
	for t.slots[i].c != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *connTable) grow() {
	old := t.slots
	t.slots = make([]connSlot, max(minConnSlots, 2*len(old)))
	for _, s := range old {
		if s.c != nil {
			t.place(s)
		}
	}
}

// remove deletes c, which must be present, and closes the hole by backward
// shift: each later entry of the probe run moves into the hole when its
// home slot does not lie cyclically between the hole and itself.
func (t *connTable) remove(c *conn) {
	mask := uint64(len(t.slots) - 1)
	hole := c.h & mask
	for t.slots[hole].c != c {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j].c != nil; j = (j + 1) & mask {
		// Its probe distance from home reaches back to the hole: move it.
		if (j-t.slots[j].h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = connSlot{}
	t.n--
}

// appendIf appends every connection for which keep reports true to dst.
// Callers finish (and so remove) the collected connections afterwards,
// because a backward shift during the scan could skip or revisit entries.
func (t *connTable) appendIf(dst []*conn, keep func(*conn) bool) []*conn {
	for _, s := range t.slots {
		if s.c != nil && keep(s.c) {
			dst = append(dst, s.c)
		}
	}
	return dst
}
