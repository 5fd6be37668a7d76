package ids

// Aho–Corasick multi-pattern string matching, used as the engine's
// prefilter: every rule contributes one "fast pattern" and a session is only
// evaluated against rules whose fast pattern occurs somewhere in the
// session. Patterns are matched case-insensitively in the automaton (the
// full rule evaluation re-checks case when the rule is case-sensitive), so
// one automaton serves both nocase and exact rules.
//
// This file is the build step only: Compile flattens the trie into the
// CompiledMatcher, the one automaton that scans at run time. The trie's own
// walker is the test oracle (ahocorasick_test.go).

// acNode is one trie node. Children are byte-indexed; the alphabet is
// lower-cased bytes, so the arrays stay dense for ASCII rule patterns while
// still covering arbitrary binary patterns.
type acNode struct {
	children map[byte]int32
	fail     int32
	// outputs are pattern IDs terminating at this node.
	outputs []int32
	// dictLink points to the nearest ancestor-via-fail with outputs, so
	// match enumeration skips barren fail chains.
	dictLink int32
}

// acTrie is an Aho–Corasick trie over a lower-cased pattern set.
type acTrie struct {
	nodes    []acNode
	patterns [][]byte
}

// newACTrie builds the trie and its links over patterns, folding ASCII
// case. The pattern slices are copied.
func newACTrie(patterns [][]byte) *acTrie {
	m := &acTrie{nodes: []acNode{{children: map[byte]int32{}, fail: 0, dictLink: -1}}}
	for _, p := range patterns {
		lowered := toLowerBytes(p)
		m.patterns = append(m.patterns, lowered)
	}
	for id, p := range m.patterns {
		m.insert(p, int32(id))
	}
	m.buildLinks()
	return m
}

func toLowerBytes(p []byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

func (m *acTrie) insert(pattern []byte, id int32) {
	cur := int32(0)
	for _, c := range pattern {
		next, ok := m.nodes[cur].children[c]
		if !ok {
			next = int32(len(m.nodes))
			m.nodes = append(m.nodes, acNode{children: map[byte]int32{}, dictLink: -1})
			m.nodes[cur].children[c] = next
		}
		cur = next
	}
	m.nodes[cur].outputs = append(m.nodes[cur].outputs, id)
}

// buildLinks computes fail and dictionary links breadth-first.
func (m *acTrie) buildLinks() {
	queue := make([]int32, 0, len(m.nodes))
	for _, child := range m.nodes[0].children {
		m.nodes[child].fail = 0
		queue = append(queue, child)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for c, child := range m.nodes[cur].children {
			queue = append(queue, child)
			// Follow fail links of cur to find the longest proper suffix
			// with an outgoing edge on c.
			f := m.nodes[cur].fail
			for f != 0 {
				if next, ok := m.nodes[f].children[c]; ok {
					f = next
					goto found
				}
				f = m.nodes[f].fail
			}
			if next, ok := m.nodes[0].children[c]; ok && next != child {
				f = next
			} else {
				f = 0
			}
		found:
			m.nodes[child].fail = f
			if len(m.nodes[f].outputs) > 0 {
				m.nodes[child].dictLink = f
			} else {
				m.nodes[child].dictLink = m.nodes[f].dictLink
			}
		}
	}
}
