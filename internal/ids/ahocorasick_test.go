package ids

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// Scan is the reference walker over the map trie — the oracle
// FuzzCompiledAutomaton and TestCompiledMatcher*Parity hold CompiledMatcher.Scan
// to. It reports the set of pattern IDs occurring in text (case-insensitive).
// The result is a deduplicated set delivered through hit, which must not be
// nil; Scan calls hit(id) exactly once per distinct matching pattern.
func (m *acTrie) Scan(text []byte, hit func(id int32)) {
	if len(m.patterns) == 0 {
		return
	}
	seen := make(map[int32]struct{})
	cur := int32(0)
	for _, c := range text {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		for {
			if next, ok := m.nodes[cur].children[c]; ok {
				cur = next
				break
			}
			if cur == 0 {
				break
			}
			cur = m.nodes[cur].fail
		}
		for n := cur; n != -1; {
			for _, id := range m.nodes[n].outputs {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					hit(id)
				}
			}
			n = m.nodes[n].dictLink
		}
	}
}

// Contains reports whether any pattern occurs in text.
func (m *acTrie) Contains(text []byte) bool {
	found := false
	m.Scan(text, func(int32) { found = true })
	return found
}

func scanAll(m *acTrie, text string) []int32 {
	var ids []int32
	m.Scan([]byte(text), func(id int32) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestMatcherBasics(t *testing.T) {
	m := newACTrie([][]byte{
		[]byte("he"), []byte("she"), []byte("his"), []byte("hers"),
	})
	got := scanAll(m, "ushers")
	want := []int32{0, 1, 3} // he, she, hers
	if len(got) != len(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
}

func TestMatcherCaseInsensitive(t *testing.T) {
	m := newACTrie([][]byte{[]byte("${JNDI:")})
	if !m.Contains([]byte("x=${jndi:ldap://e/a}")) {
		t.Error("case-insensitive match failed")
	}
	if !m.Contains([]byte("X=${JnDi:LDAP://E/A}")) {
		t.Error("mixed-case match failed")
	}
	if m.Contains([]byte("nothing here")) {
		t.Error("false positive")
	}
}

func TestMatcherEmptySet(t *testing.T) {
	m := newACTrie(nil)
	if m.Contains([]byte("anything")) {
		t.Error("empty matcher matched")
	}
	if len(m.patterns) != 0 {
		t.Errorf("patterns = %d", len(m.patterns))
	}
}

func TestMatcherOverlapping(t *testing.T) {
	m := newACTrie([][]byte{[]byte("abc"), []byte("bcd"), []byte("cde"), []byte("abcde")})
	got := scanAll(m, "abcde")
	if len(got) != 4 {
		t.Errorf("Scan = %v, want all 4 patterns", got)
	}
}

func TestMatcherDedup(t *testing.T) {
	m := newACTrie([][]byte{[]byte("aa")})
	count := 0
	m.Scan([]byte("aaaa"), func(int32) { count++ })
	if count != 1 {
		t.Errorf("pattern reported %d times, want 1 (deduplicated)", count)
	}
}

func TestMatcherBinaryPatterns(t *testing.T) {
	m := newACTrie([][]byte{{0x90, 0x90, 0x90}, {0x00, 0xff}})
	if !m.Contains([]byte{0x41, 0x90, 0x90, 0x90, 0x42}) {
		t.Error("binary NOP sled not found")
	}
	if !m.Contains([]byte{0x00, 0xff}) {
		t.Error("binary pattern at start not found")
	}
}

// Matcher must agree with the naive algorithm on random inputs.
func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte("abAB${}:/")
	for trial := 0; trial < 60; trial++ {
		nPat := 1 + rng.Intn(8)
		patterns := make([][]byte, nPat)
		for i := range patterns {
			n := 1 + rng.Intn(5)
			p := make([]byte, n)
			for j := range p {
				p[j] = alphabet[rng.Intn(len(alphabet))]
			}
			patterns[i] = p
		}
		text := make([]byte, 80)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		m := newACTrie(patterns)
		got := map[int32]bool{}
		m.Scan(text, func(id int32) { got[id] = true })
		for id, p := range patterns {
			want := bytes.Contains(bytes.ToLower(text), bytes.ToLower(p))
			if got[int32(id)] != want {
				t.Fatalf("trial %d: pattern %q in %q: matcher=%v naive=%v",
					trial, p, text, got[int32(id)], want)
			}
		}
	}
}
