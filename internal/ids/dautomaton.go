package ids

// Compiled Aho–Corasick automaton, built from the map trie in
// ahocorasick.go. The trie's transition function is flattened into two
// parallel int32 arrays (base/check), so following a byte is one add and one
// compare against contiguous memory instead of a map probe per node — the
// difference between cache lines and pointer soup at 48k patterns. The
// automaton is immutable once compiled, builds once per ruleset generation,
// and the double array is its serialized form: a flat little-endian layout
// the registry caches on disk (position-independent, so a future loader can
// map it straight from the file).
//
// The double array is also the scan walk for automata over denseBudget.
// Smaller ones — the study's prefilter among them — additionally derive a
// dense byte-class DFA after compiling or loading: a 256-entry byte→class
// map that folds ASCII case, and one row per cell holding every goto and
// fail transition already resolved, so Scan makes one table load per byte
// and never walks a fail chain. The automaton's own size selects the walk.
//
// Matching semantics are byte-for-byte identical to the trie's reference
// walker (acTrie.Scan, test-only) on both walks — same case folding, same
// hit order, same dedup — which FuzzCompiledAutomaton enforces. The Scan hot
// path performs zero allocations given a reusable ScanScratch; that property
// is gated by the recorded allocs_per_op of 0 of BenchmarkAutomatonMatch48k
// (double array) and BenchmarkAutomatonMatchStudy (dense table).

import (
	"encoding/binary"
	"fmt"
)

// CompiledMatcher is an immutable Aho–Corasick automaton: a double array,
// plus a dense transition table when it fits denseBudget.
type CompiledMatcher struct {
	// base/check encode transitions: from state s on lowered byte c, the
	// candidate cell is t = base[s]+c, taken when check[t] == s. A state's
	// base is daNoChildren when it has no outgoing edges.
	base  []int32
	check []int32
	// fail is the longest-proper-suffix state, dict the nearest fail-chain
	// ancestor with outputs (-1 when none) — exactly the trie's links.
	fail []int32
	dict []int32
	// outStart/outCount slice outs per state: outs[outStart[s]:+outCount[s]]
	// are the pattern IDs terminating at s.
	outStart []int32
	outCount []int32
	outs     []int32
	// outHead is derived, never serialized: s itself when s has outputs,
	// else dict[s]. Scan starts each output walk there, so a state with
	// nothing to report costs one load instead of a walk.
	outHead []int32
	// dense is derived, never serialized, and nil over denseBudget: row s
	// (dense[s<<denseShift:][:1<<denseShift]) holds the resolved transition
	// from cell s on each byte class — the target cell, plus denseOut when
	// the target has outputs. classOf maps a text byte to its class; class
	// 0, "no pattern byte", always leads back to the root.
	dense      []uint16
	denseShift uint
	classOf    [256]uint8

	numPatterns int32
}

const (
	daNoChildren = int32(-1) // base value for leaf states
	daFreeCell   = int32(-1) // check value for unoccupied cells

	// denseOut flags a dense entry whose target has outputs; the low 15
	// bits are the target cell, which bounds dense automata to 1<<15 cells.
	denseOut  = 1 << 15
	denseCell = denseOut - 1
	// denseBudget caps the dense table's bytes. The study prefilter (1,381
	// cells × 64-entry rows ≈ 177 KB) fits; the 48k-signature corpus
	// (≈349k cells × 231 classes ≈ 170 MB) does not, and keeps the double
	// array walk.
	denseBudget = 1 << 20
)

// ScanScratch is the reusable per-goroutine state a zero-allocation Scan
// needs: an epoch-stamped per-pattern mark array in place of a per-call
// map. The zero value is ready to use; a scratch grows to the
// largest pattern count it has seen and may be reused across automata.
type ScanScratch struct {
	mark  []uint32
	epoch uint32
}

func (s *ScanScratch) begin(n int) uint32 {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
	}
	s.epoch++
	if s.epoch == 0 {
		// uint32 wraparound: stale marks from 4 billion scans ago could
		// alias; clear once and restart the epoch sequence.
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// Compile builds the double-array automaton over patterns, matching
// case-insensitively. It compiles through the map trie, so links and output
// order cannot drift from the reference walker the tests keep.
func Compile(patterns [][]byte) *CompiledMatcher {
	return compileFrom(newACTrie(patterns))
}

// compileFrom flattens a built trie into double-array form. State IDs are
// remapped to cell indices; the root is cell 0.
func compileFrom(m *acTrie) *CompiledMatcher {
	c := &CompiledMatcher{numPatterns: int32(len(m.patterns))}
	n := len(m.nodes)
	// cellOf maps trie node index -> double-array cell.
	cellOf := make([]int32, n)

	// Initial capacity: nodes plus slack for placement spread.
	cap0 := n + n/4 + 260
	c.grow(cap0)
	free := newFreeList(int32(len(c.check)))
	// Root occupies cell 0.
	free.take(0)
	// The root is its own parent. No child is ever placed in cell 0, so the
	// only edge this fakes is root→root on byte 0 when base[0] is 0, which
	// leads where the miss it replaces would.
	c.check[0] = 0
	cellOf[0] = 0

	// BFS in trie node order: newACTrie appends nodes in insertion order and
	// built its links breadth-first, so parents always precede children; a
	// simple queue over node IDs preserves that.
	queue := make([]int32, 0, n)
	queue = append(queue, 0)
	bytesBuf := make([]byte, 0, 256)
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		cell := cellOf[node]
		kids := m.nodes[node].children
		if len(kids) == 0 {
			c.base[cell] = daNoChildren
			continue
		}
		// Deterministic placement: order edges by byte.
		bytesBuf = bytesBuf[:0]
		for b := range kids {
			bytesBuf = append(bytesBuf, b)
		}
		for i := 1; i < len(bytesBuf); i++ {
			for j := i; j > 0 && bytesBuf[j] < bytesBuf[j-1]; j-- {
				bytesBuf[j], bytesBuf[j-1] = bytesBuf[j-1], bytesBuf[j]
			}
		}
		base := c.place(free, bytesBuf)
		c.base[cell] = base
		for _, b := range bytesBuf {
			t := base + int32(b)
			child := kids[b]
			c.check[t] = cell
			cellOf[child] = t
			queue = append(queue, child)
		}
	}

	// Second pass: links and outputs, now that every node has its cell.
	for node := 0; node < n; node++ {
		cell := cellOf[node]
		c.fail[cell] = cellOf[m.nodes[node].fail]
		if dl := m.nodes[node].dictLink; dl >= 0 {
			c.dict[cell] = cellOf[dl]
		} else {
			c.dict[cell] = -1
		}
		if outs := m.nodes[node].outputs; len(outs) > 0 {
			c.outStart[cell] = int32(len(c.outs))
			c.outCount[cell] = int32(len(outs))
			c.outs = append(c.outs, outs...)
		}
	}
	c.shrink(free)
	c.derive()
	return c
}

// derive fills the in-memory fields the serialized form omits: outHead from
// outCount and dict, then the dense table when it fits.
func (c *CompiledMatcher) derive() {
	c.outHead = make([]int32, len(c.check))
	for s := range c.outHead {
		if c.outCount[s] > 0 {
			c.outHead[s] = int32(s)
		} else {
			c.outHead[s] = c.dict[s]
		}
	}
	c.deriveDense()
}

// deriveDense builds the dense table, or leaves it nil when the automaton
// is over budget or is not a well-formed trie (a loaded file may be
// anything that passed LoadCompiledMatcher's index checks; the double-array
// walk then behaves exactly as it did before the table existed).
func (c *CompiledMatcher) deriveDense() {
	cells := len(c.check)
	if cells > denseCell+1 {
		return
	}
	// One class per lower-case byte that labels an edge. The walk lowers
	// text before following it, so an upper-case label is unreachable and
	// gets no class; upper-case text bytes share their lower-case class.
	var used [256]bool
	for t, p := range c.check {
		if t == 0 || p < 0 || int(p) >= cells || c.base[p] < 0 {
			continue
		}
		if b := t - int(c.base[p]); b >= 0 && b < 256 {
			used[b] = true
		}
	}
	var classOf [256]uint8
	reps := []byte{0} // reps[k]: the byte class k stands for
	for b := 0; b < 256; b++ {
		if used[b] && (b < 'A' || b > 'Z') {
			classOf[b] = uint8(len(reps))
			reps = append(reps, byte(b))
		}
	}
	for b := 'A'; b <= 'Z'; b++ {
		classOf[b] = classOf[b+'a'-'A']
	}
	shift := uint(0)
	for 1<<shift < len(reps) {
		shift++
	}
	if cells<<shift*2 > denseBudget {
		return
	}

	// Breadth-first from the root, so a cell's fail target (strictly
	// shallower) has its row resolved before the cell's own row borrows
	// from it.
	const (
		queued = 1
		filled = 2
	)
	entry := func(t int32) uint16 {
		if c.outHead[t] != -1 {
			return uint16(t) | denseOut
		}
		return uint16(t)
	}
	dense := make([]uint16, cells<<shift)
	if root := entry(0); root != 0 {
		// The root reports outputs too (an empty pattern): every entry
		// not overwritten below leads to it.
		for i := range dense {
			dense[i] = root
		}
	}
	state := make([]uint8, cells)
	queue := make([]int32, 1, cells)
	state[0] = queued
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		f := c.fail[s]
		if s != 0 && state[f] != filled {
			return
		}
		row := dense[int(s)<<shift:][:1<<shift]
		for k := 1; k < len(reps); k++ {
			switch t := c.child(s, reps[k]); {
			case t > 0:
				if state[t] != 0 {
					return // a cell reached twice: not a trie
				}
				state[t] = queued
				queue = append(queue, t)
				row[k] = entry(t)
			case t == 0 || s == 0:
				row[k] = entry(0)
			default:
				row[k] = dense[int(f)<<shift+k]
			}
		}
		state[s] = filled
	}
	c.dense, c.denseShift, c.classOf = dense, shift, classOf
}

// child returns cell s's goto target on (lower-cased) byte b, or -1.
func (c *CompiledMatcher) child(s int32, b byte) int32 {
	if base := c.base[s]; base >= 0 {
		if t := int(base) + int(b); t < len(c.check) && c.check[t] == s {
			return int32(t)
		}
	}
	return -1
}

// grow extends every per-cell array to at least want cells, keeping new
// cells free.
func (c *CompiledMatcher) grow(want int) {
	old := len(c.check)
	if want <= old {
		return
	}
	next := old + old/2
	if next < want {
		next = want
	}
	extend := func(a []int32, fill int32) []int32 {
		out := make([]int32, next)
		copy(out, a)
		for i := old; i < next; i++ {
			out[i] = fill
		}
		return out
	}
	c.base = extend(c.base, daNoChildren)
	c.check = extend(c.check, daFreeCell)
	c.fail = extend(c.fail, 0)
	c.dict = extend(c.dict, -1)
	c.outStart = extend(c.outStart, 0)
	c.outCount = extend(c.outCount, 0)
}

// shrink trims the arrays to the highest occupied cell.
func (c *CompiledMatcher) shrink(f *freeList) {
	hi := 0
	for i := len(c.check) - 1; i >= 0; i-- {
		if c.check[i] != daFreeCell {
			hi = i
			break
		}
	}
	n := hi + 1
	c.base = c.base[:n:n]
	c.check = c.check[:n:n]
	c.fail = c.fail[:n:n]
	c.dict = c.dict[:n:n]
	c.outStart = c.outStart[:n:n]
	c.outCount = c.outCount[:n:n]
}

// freeList is a doubly-linked list over unoccupied cells, giving the
// first-fit base search amortized near-constant steps per placement instead
// of rescanning the dense prefix.
type freeList struct {
	// Slot i+1 represents cell i; slot 0 is the head sentinel. next[i] = -1
	// terminates the list; a taken slot self-loops.
	next []int32
	prev []int32
	tail int32 // slot index of the last free slot (0 = list empty)
}

func newFreeList(cells int32) *freeList {
	f := &freeList{next: make([]int32, cells+1), prev: make([]int32, cells+1)}
	for i := int32(0); i <= cells; i++ {
		f.next[i] = i + 1
		f.prev[i] = i - 1
	}
	f.next[cells] = -1
	f.tail = cells
	return f
}

// growTo extends the list to cover cells [old, cells), all free.
func (f *freeList) growTo(cells int32) {
	old := int32(len(f.next)) - 1 // previously covered cell count
	if cells <= old {
		return
	}
	next := make([]int32, cells+1)
	prev := make([]int32, cells+1)
	copy(next, f.next)
	copy(prev, f.prev)
	f.next, f.prev = next, prev
	f.next[f.tail] = old + 1
	for i := old + 1; i <= cells; i++ {
		f.next[i] = i + 1
		f.prev[i] = i - 1
	}
	f.prev[old+1] = f.tail
	f.next[cells] = -1
	f.tail = cells
}

// first returns the first free cell, or -1.
func (f *freeList) first() int32 { return f.next[0] - 1 }

// after returns the next free cell after the free cell `cell`, or -1.
func (f *freeList) after(cell int32) int32 {
	n := f.next[cell+1]
	if n < 0 {
		return -1
	}
	return n - 1
}

// take removes cell from the list.
func (f *freeList) take(cell int32) {
	i := cell + 1
	p, n := f.prev[i], f.next[i]
	f.next[p] = n
	if n >= 0 {
		f.prev[n] = p
	}
	if f.tail == i {
		f.tail = p
	}
	f.next[i] = i // self-loop marks taken
	f.prev[i] = i
}

// free reports whether cell is unoccupied.
func (f *freeList) free(cell int32) bool {
	i := cell + 1
	return f.next[i] != i
}

// place finds a base such that every child cell base+c is free, occupying
// nothing itself (the caller marks the child cells via check). bytes must be
// sorted ascending and non-empty.
func (c *CompiledMatcher) place(f *freeList, bytes []byte) int32 {
	c0 := int32(bytes[0])
	for cand := f.first(); ; cand = f.after(cand) {
		if cand < 0 || int(cand)+255 >= len(c.check) {
			// Out of room: extend the arrays (and the free list) and keep
			// searching from the new space.
			want := len(c.check) + len(c.check)/2 + 512
			c.grow(want)
			f.growTo(int32(len(c.check)))
			if cand < 0 {
				cand = f.first()
			}
		}
		base := cand - c0
		if base < 0 {
			continue
		}
		ok := true
		for _, b := range bytes {
			if !f.free(base + int32(b)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, b := range bytes {
			f.take(base + int32(b))
		}
		return base
	}
}

// NumPatterns returns the number of patterns in the automaton.
func (c *CompiledMatcher) NumPatterns() int { return int(c.numPatterns) }

// States returns the number of double-array cells — the automaton's
// footprint metric: each cell is six serialized int32s, plus the derived
// outHead in memory and, when the dense table is built, one row of uint16
// entries per cell (a power-of-two row at least as wide as the byte-class
// count).
func (c *CompiledMatcher) States() int { return len(c.check) }

// Scan reports the set of pattern IDs occurring in text, case-insensitively,
// through hit — exactly once per distinct pattern, ordered by where each
// first ends in text (longest first at one position). scratch must not be
// shared between concurrent Scans; passing the same scratch to successive
// calls makes Scan allocation-free.
func (c *CompiledMatcher) Scan(text []byte, scratch *ScanScratch, hit func(id int32)) {
	if c.numPatterns == 0 {
		return
	}
	if c.dense != nil {
		c.scanDense(text, scratch, hit)
	} else {
		c.scanDoubleArray(text, scratch, hit)
	}
}

// scanDense is Scan over the dense table: one load per byte.
func (c *CompiledMatcher) scanDense(text []byte, scratch *ScanScratch, hit func(id int32)) {
	epoch := scratch.begin(int(c.numPatterns))
	dense, shift, classOf := c.dense, c.denseShift, &c.classOf
	s := 0
	for _, b := range text {
		// shift&63 lets the compiler drop its over-wide-shift guard, an
		// instruction on the loop's dependency chain.
		e := dense[s<<(shift&63)|int(classOf[b])]
		s = int(e & denseCell)
		if e&denseOut != 0 {
			c.report(int32(s), scratch.mark, epoch, hit)
		}
	}
}

// scanDoubleArray is Scan over the double array, following fail links on a
// miss: the walk for automata over denseBudget.
func (c *CompiledMatcher) scanDoubleArray(text []byte, scratch *ScanScratch, hit func(id int32)) {
	epoch := scratch.begin(int(c.numPatterns))
	s := int32(0)
	for _, b := range text {
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		bc := int32(b)
		for {
			if base := c.base[s]; base >= 0 {
				t := base + bc
				if int(t) < len(c.check) && c.check[t] == s {
					s = t
					break
				}
			}
			if s == 0 {
				break
			}
			s = c.fail[s]
		}
		if c.outHead[s] != -1 {
			c.report(s, scratch.mark, epoch, hit)
		}
	}
}

// report calls hit for every pattern ending at cell s not yet reported in
// this scan: s's own outputs, then those along its dictionary chain.
func (c *CompiledMatcher) report(s int32, mark []uint32, epoch uint32, hit func(id int32)) {
	for n := c.outHead[s]; n != -1; n = c.dict[n] {
		start, cnt := c.outStart[n], c.outCount[n]
		for _, id := range c.outs[start : start+cnt] {
			if mark[id] != epoch {
				mark[id] = epoch
				hit(id)
			}
		}
	}
}

// Contains reports whether any pattern occurs in text.
func (c *CompiledMatcher) Contains(text []byte) bool {
	var scratch ScanScratch
	found := false
	c.Scan(text, &scratch, func(int32) { found = true })
	return found
}

// Serialized form: a fixed header then the six per-cell arrays and the
// output list as contiguous little-endian int32s. Every array lands at a
// 4-byte-aligned offset computable from the header alone — the
// mmap-friendliness the registry's on-disk automaton cache relies on.
const (
	compiledMagic   = "WBDAAC01"
	compiledHdrSize = 8 + 4 + 4 + 4 // magic, numPatterns, cells, outs
)

// AppendBinary appends the serialized automaton to buf.
func (c *CompiledMatcher) AppendBinary(buf []byte) []byte {
	buf = append(buf, compiledMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.numPatterns))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.check)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.outs)))
	for _, arr := range [][]int32{c.base, c.check, c.fail, c.dict, c.outStart, c.outCount, c.outs} {
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// LoadCompiledMatcher deserializes an AppendBinary encoding, validating
// every index so a corrupt or hostile cache file fails loudly instead of
// panicking at scan time.
func LoadCompiledMatcher(raw []byte) (*CompiledMatcher, error) {
	if len(raw) < compiledHdrSize || string(raw[:8]) != compiledMagic {
		return nil, fmt.Errorf("ids: not a compiled automaton (bad header)")
	}
	numPat := int32(binary.LittleEndian.Uint32(raw[8:12]))
	cells := int(binary.LittleEndian.Uint32(raw[12:16]))
	nOuts := int(binary.LittleEndian.Uint32(raw[16:20]))
	if numPat < 0 || cells <= 0 || nOuts < 0 {
		return nil, fmt.Errorf("ids: compiled automaton header out of range")
	}
	want := compiledHdrSize + 4*(6*cells+nOuts)
	if len(raw) != want {
		return nil, fmt.Errorf("ids: compiled automaton is %d bytes, header implies %d", len(raw), want)
	}
	read := func(off, n int) []int32 {
		out := make([]int32, n)
		for i := 0; i < n; i++ {
			out[i] = int32(binary.LittleEndian.Uint32(raw[off+4*i:]))
		}
		return out
	}
	off := compiledHdrSize
	c := &CompiledMatcher{numPatterns: numPat}
	c.base = read(off, cells)
	off += 4 * cells
	c.check = read(off, cells)
	off += 4 * cells
	c.fail = read(off, cells)
	off += 4 * cells
	c.dict = read(off, cells)
	off += 4 * cells
	c.outStart = read(off, cells)
	off += 4 * cells
	c.outCount = read(off, cells)
	off += 4 * cells
	c.outs = read(off, nOuts)

	// Validate: every stored index must stay in bounds, so Scan can run
	// without per-step checks.
	nc := int32(cells)
	for i := 0; i < cells; i++ {
		if f := c.fail[i]; f < 0 || f >= nc {
			return nil, fmt.Errorf("ids: compiled automaton fail[%d]=%d out of range", i, f)
		}
		if d := c.dict[i]; d < -1 || d >= nc {
			return nil, fmt.Errorf("ids: compiled automaton dict[%d]=%d out of range", i, d)
		}
		cnt := c.outCount[i]
		start := c.outStart[i]
		if cnt < 0 || start < 0 || int(start)+int(cnt) > nOuts {
			return nil, fmt.Errorf("ids: compiled automaton outputs[%d] out of range", i)
		}
	}
	for _, id := range c.outs {
		if id < 0 || id >= numPat {
			return nil, fmt.Errorf("ids: compiled automaton pattern id %d out of range", id)
		}
	}
	c.derive()
	return c, nil
}
