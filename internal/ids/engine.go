package ids

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/tcpasm"
)

// Match is one rule that fired on a session.
type Match struct {
	Rule *rules.DatedRule
	SID  int
	// CVEs is the rule's CVE references, shared by every match of the rule;
	// callers must not modify it.
	CVEs      []string
	Published time.Time
}

// Config configures the engine.
type Config struct {
	// PortInsensitive rewrites every rule's port constraints to `any`
	// before evaluation, as the paper does (Section 3.1).
	PortInsensitive bool
	// Env resolves $VAR address specifications. Unresolved variables match
	// everything.
	Env map[string][]netip.Prefix
	// DisablePrefilter turns off the Aho–Corasick candidate prefilter and
	// evaluates every rule against every session. Used by the ablation
	// bench; the results must be identical either way.
	DisablePrefilter bool
	// AutomatonCache, when non-nil, caches the compiled prefilter automaton
	// across engine builds, keyed by the (case-normalized) pattern set. The
	// ruleset registry points this at its generation directory so republishing
	// a ruleset reuses the compiled form instead of rebuilding 48k patterns.
	AutomatonCache AutomatonCache
}

// AutomatonCache stores serialized compiled automatons. Load returns nil on
// a miss; a corrupt entry is simply ignored (and overwritten) by the engine.
type AutomatonCache interface {
	Load(key string) []byte
	Store(key string, data []byte)
}

// Engine evaluates a dated ruleset over sessions.
type Engine struct {
	cfg      Config
	ruleset  []rules.DatedRule
	cves     [][]string // rule index -> Rule.CVEs(), derived once
	prefilt  *CompiledMatcher
	byPat    [][]int // pattern id -> rule indices
	noFastPS []int   // rules without a usable fast pattern: always candidates
	counters []ruleCounters
}

// matchScratch is the per-goroutine state one Match or Earliest call works
// in, pooled so the hit path allocates nothing once warm: the prefilter's
// scan state, the candidate list, epoch-stamped per-pattern marks that
// dedup candidates across the session's several scans, and the parsed
// requests with the arena their derived views live in.
type matchScratch struct {
	scan  ScanScratch
	seen  ScanScratch // marks: fast patterns whose rules are already candidates
	cands []int
	bufs  Buffers
	arena []byte
	// byPat is the calling engine's, for queue; hit is queue bound once, so
	// handing it to Scan never allocates.
	byPat [][]int
	hit   func(id int32)
}

var matchScratchPool = sync.Pool{New: func() any { return newMatchScratch() }}

func newMatchScratch() *matchScratch {
	sc := new(matchScratch)
	sc.hit = sc.queue
	return sc
}

// queue makes the rules of fast pattern id candidates, once per session.
func (sc *matchScratch) queue(id int32) {
	if sc.seen.mark[id] == sc.seen.epoch {
		return
	}
	sc.seen.mark[id] = sc.seen.epoch
	sc.cands = append(sc.cands, sc.byPat[id]...)
}

// forget drops every reference to the last session and engine, so a pooled
// scratch pins neither client streams nor rules.
func (sc *matchScratch) forget() {
	clear(sc.bufs.Requests)
	sc.bufs = Buffers{Requests: sc.bufs.Requests[:0]}
	sc.byPat = nil
}

func (sc *matchScratch) release() {
	sc.forget()
	matchScratchPool.Put(sc)
}

// NewEngine compiles the ruleset. Rules are copied; callers may mutate their
// slice afterwards.
func NewEngine(ruleset []rules.DatedRule, cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.ruleset = make([]rules.DatedRule, len(ruleset))
	copy(e.ruleset, ruleset)
	if cfg.PortInsensitive {
		for i := range e.ruleset {
			e.ruleset[i].Rule = e.ruleset[i].Rule.PortInsensitive()
		}
	}
	e.cves = make([][]string, len(e.ruleset))
	var patterns [][]byte
	for i := range e.ruleset {
		e.cves[i] = e.ruleset[i].Rule.CVEs()
		fp := e.ruleset[i].Rule.FastPatternContent()
		if fp == nil {
			e.noFastPS = append(e.noFastPS, i)
			continue
		}
		// Reuse pattern slots for identical fast patterns.
		found := -1
		for pi, p := range patterns {
			if bytes.EqualFold(p, fp.Pattern) {
				found = pi
				break
			}
		}
		if found < 0 {
			patterns = append(patterns, fp.Pattern)
			e.byPat = append(e.byPat, nil)
			found = len(patterns) - 1
		}
		e.byPat[found] = append(e.byPat[found], i)
	}
	e.prefilt = compilePrefilter(patterns, cfg.AutomatonCache)
	e.counters = make([]ruleCounters, len(e.ruleset))
	return e
}

// compilePrefilter builds (or loads from cache) the compiled automaton over
// the fast-pattern set.
func compilePrefilter(patterns [][]byte, cache AutomatonCache) *CompiledMatcher {
	if cache == nil {
		return Compile(patterns)
	}
	key := automatonKey(patterns)
	if raw := cache.Load(key); raw != nil {
		if m, err := LoadCompiledMatcher(raw); err == nil && m.NumPatterns() == len(patterns) {
			return m
		}
	}
	m := Compile(patterns)
	cache.Store(key, m.AppendBinary(nil))
	return m
}

// automatonKey hashes the pattern sequence (case-normalized, as the
// automaton matches) into a cache key. Pattern order matters: prefilter IDs
// are positional.
func automatonKey(patterns [][]byte) string {
	h := sha256.New()
	var lenb [8]byte
	for _, p := range patterns {
		lp := toLowerBytes(p)
		binary.LittleEndian.PutUint64(lenb[:], uint64(len(lp)))
		h.Write(lenb[:])
		h.Write(lp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// NumRules returns the number of compiled rules.
func (e *Engine) NumRules() int { return len(e.ruleset) }

// Match evaluates the session against the whole ruleset and returns every
// firing rule, sorted by rule publication time then SID (ties keep
// candidate order).
func (e *Engine) Match(s *tcpasm.Session) []Match {
	sc := matchScratchPool.Get().(*matchScratch)
	defer sc.release()
	e.prepare(s, sc)
	var out []Match
	for _, ri := range sc.cands {
		if e.eval(ri, s, &sc.bufs) {
			out = append(out, e.match(ri))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return earlier(&out[i], &out[j]) })
	return out
}

// Earliest returns the earliest-published match, following the paper's
// retention policy ("for each TCP session, we retain only the
// earliest-published matching IDS signature"). The second result is false
// when no rule matched.
func (e *Engine) Earliest(s *tcpasm.Session) (Match, bool) {
	sc := matchScratchPool.Get().(*matchScratch)
	defer sc.release()
	return e.earliest(s, sc)
}

// earliest is Earliest in the caller's scratch. It evaluates every
// candidate, as Match does (the profile counts each), but keeps only the
// running minimum in Match's order, so the result is Match(s)[0] without the
// slice or the sort.
func (e *Engine) earliest(s *tcpasm.Session, sc *matchScratch) (best Match, found bool) {
	e.prepare(s, sc)
	for _, ri := range sc.cands {
		if !e.eval(ri, s, &sc.bufs) {
			continue
		}
		if m := e.match(ri); !found || earlier(&m, &best) {
			best, found = m, true
		}
	}
	return best, found
}

// earlier is the order Match sorts in: rule publication time, then SID.
func earlier(a, b *Match) bool {
	if !a.Published.Equal(b.Published) {
		return a.Published.Before(b.Published)
	}
	return a.SID < b.SID
}

// prepare parses s's client stream into sc.bufs and fills sc.cands with the
// candidate rules: those without a fast pattern, then the rules of each fast
// pattern the prefilter finds, in first-hit order.
func (e *Engine) prepare(s *tcpasm.Session, sc *matchScratch) {
	if cap(sc.arena) < len(s.ClientData) {
		sc.arena = make([]byte, 0, len(s.ClientData))
	}
	sc.arena = sc.bufs.parse(s.ClientData, sc.arena[:0])
	sc.cands = sc.cands[:0]
	if e.cfg.DisablePrefilter {
		for i := range e.ruleset {
			sc.cands = append(sc.cands, i)
		}
		return
	}
	sc.cands = append(sc.cands, e.noFastPS...)
	sc.seen.begin(len(e.byPat))
	sc.byPat = e.byPat
	e.prefilt.Scan(s.ClientData, &sc.scan, sc.hit)
	if len(s.ServerData) > 0 {
		// to_client rules inspect the server stream.
		e.prefilt.Scan(s.ServerData, &sc.scan, sc.hit)
	}
	// Decoded views must reach the full evaluation too: a percent-encoded
	// URI or a chunk-split body hides its fast pattern from the raw scan.
	for i := range sc.bufs.Requests {
		req := &sc.bufs.Requests[i]
		if req.norm != nil {
			e.prefilt.Scan(req.norm, &sc.scan, sc.hit)
		}
		if req.dechunked && len(req.Body) > 0 && !bytes.Contains(s.ClientData, req.Body) {
			e.prefilt.Scan(req.Body, &sc.scan, sc.hit)
		}
	}
}

// eval evaluates candidate rule ri against s, counting it in the profile.
func (e *Engine) eval(ri int, s *tcpasm.Session, bufs *Buffers) bool {
	e.counters[ri].evaluated.Add(1)
	if !e.ruleMatches(e.ruleset[ri].Rule, s, bufs) {
		return false
	}
	e.counters[ri].matched.Add(1)
	return true
}

// match is rule ri's Match.
func (e *Engine) match(ri int) Match {
	dr := &e.ruleset[ri]
	return Match{Rule: dr, SID: dr.Rule.SID, CVEs: e.cves[ri], Published: dr.Published}
}

// ruleMatches applies header then payload checks.
func (e *Engine) ruleMatches(r *rules.Rule, s *tcpasm.Session, bufs *Buffers) bool {
	if r.Proto != rules.ProtoTCP && r.Proto != rules.ProtoIP {
		return false
	}
	headerOK := e.headerMatches(r, s.Client, s.Server)
	if !headerOK && r.Dir == rules.DirBidirectional {
		headerOK = e.headerMatches(r, s.Server, s.Client)
	}
	if !headerOK {
		return false
	}
	if r.Flow.ToClient && !r.Flow.ToServer {
		// The telescope sends no application data, so to_client-only rules
		// can never fire on its captures; evaluated for completeness.
		return len(s.ServerData) > 0 && payloadMatches(r, &Buffers{Raw: s.ServerData})
	}
	if r.Flow.Established && !s.Complete {
		// Established-only rules need a full handshake. Mid-stream pickups
		// are not established from the IDS's perspective.
		return false
	}
	return payloadMatches(r, bufs)
}

// headerMatches checks the rule header against a (src=client, dst=server)
// endpoint assignment.
func (e *Engine) headerMatches(r *rules.Rule, src, dst packet.Endpoint) bool {
	return r.SrcAddr.Contains(src.Addr, e.cfg.Env) &&
		r.DstAddr.Contains(dst.Addr, e.cfg.Env) &&
		r.SrcPorts.Contains(src.Port) &&
		r.DstPorts.Contains(dst.Port)
}

// payloadMatches evaluates contents (in order, with positional state per
// buffer), pcres, and size tests.
func payloadMatches(r *rules.Rule, bufs *Buffers) bool {
	if r.Dsize != nil && !r.Dsize.Matches(len(bufs.Raw)) {
		return false
	}
	for _, d := range r.IsDataAts {
		has := d.Offset < len(bufs.Raw)
		if has == d.Negated {
			return false
		}
	}
	for _, bt := range r.ByteTests {
		if !bt.Eval(bufs.Raw, 0) {
			return false
		}
	}
	if r.Urilen != nil {
		ok := false
		for i := range bufs.Requests {
			if r.Urilen.Matches(len(bufs.Requests[i].URI)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Contents) == 0 && len(r.PCREs) == 0 {
		// Header/size-only rule: everything above already matched.
		return true
	}
	// HTTP-buffer rules evaluate per request; raw-only rules evaluate once.
	// A rule matches if any single request (plus the raw stream) satisfies
	// every option. http_uri options additionally see the normalized
	// request target (Snort semantics: percent-encoding must not evade
	// URI-bound signatures).
	n := len(bufs.Requests)
	if n == 0 {
		n = 1 // evaluate once with empty HTTP buffers
	}
	for reqIdx := 0; reqIdx < n; reqIdx++ {
		if payloadMatchesForRequest(r, bufs, reqIdx, nil) {
			return true
		}
		if reqIdx < len(bufs.Requests) && bufs.Requests[reqIdx].norm != nil &&
			payloadMatchesForRequest(r, bufs, reqIdx, bufs.Requests[reqIdx].norm) {
			return true
		}
	}
	return false
}

// cursorSlots sizes the per-buffer cursor array: one slot per known
// rules.Buffer plus one shared by any other value — such buffers have no
// text, so their cursor can only ever hold 0.
const cursorSlots = int(rules.BufHTTPBody) + 2

func cursorSlot(b rules.Buffer) int {
	if b < 0 || int(b) >= cursorSlots-1 {
		return cursorSlots - 1
	}
	return int(b)
}

// payloadMatchesForRequest checks all options against request reqIdx's
// buffers (and the raw stream). uriOverride, when non-nil, replaces the
// http_uri buffer text (the normalized-target pass).
func payloadMatchesForRequest(r *rules.Rule, bufs *Buffers, reqIdx int, uriOverride []byte) bool {
	textOf := func(buf rules.Buffer) []byte {
		if buf == rules.BufHTTPURI && uriOverride != nil {
			return uriOverride
		}
		return bufferTextFor(bufs, buf, reqIdx)
	}
	// cursor tracks the end of the previous content match per buffer for
	// distance/within semantics.
	var cursor [cursorSlots]int
	for i := range r.Contents {
		c := &r.Contents[i]
		text := textOf(c.Buffer)
		slot := cursorSlot(c.Buffer)
		pos, ok := findContent(text, c, cursor[slot])
		if c.Negated {
			if ok {
				return false
			}
			continue
		}
		if !ok {
			return false
		}
		end := pos + len(c.Pattern)
		cursor[slot] = end
		for _, d := range c.DataAts {
			has := end+d.Offset < len(text)
			if has == d.Negated {
				return false
			}
		}
		for _, bt := range c.ByteTests {
			if !bt.Eval(text, end) {
				return false
			}
		}
	}
	for i := range r.PCREs {
		p := &r.PCREs[i]
		matched := p.Re.Match(textOf(p.Buffer))
		if matched == p.Negated {
			return false
		}
	}
	return true
}

// bufferTextFor returns the inspection text of buf for request reqIdx.
func bufferTextFor(bufs *Buffers, buf rules.Buffer, reqIdx int) []byte {
	if buf == rules.BufRaw {
		return bufs.Raw
	}
	if reqIdx >= len(bufs.Requests) {
		return nil
	}
	req := &bufs.Requests[reqIdx]
	switch buf {
	case rules.BufHTTPMethod:
		return req.Method
	case rules.BufHTTPURI, rules.BufHTTPRawURI:
		return req.URI
	case rules.BufHTTPHeader:
		return req.Headers
	case rules.BufHTTPCookie:
		return req.Cookie
	case rules.BufHTTPBody:
		return req.Body
	default:
		return nil
	}
}

// findContent locates pattern c in text honoring positional modifiers.
// prevEnd is the end offset of the previous content match in this buffer
// (zero when none). It returns the match start and success.
func findContent(text []byte, c *rules.Content, prevEnd int) (int, bool) {
	start := 0
	end := len(text)
	switch {
	case c.Distance != nil || c.Within != nil:
		start = prevEnd
		if c.Distance != nil {
			start += *c.Distance
		}
		if c.Within != nil {
			lim := start + *c.Within
			if lim < end {
				end = lim
			}
		}
	default:
		if c.Offset != nil {
			start = *c.Offset
		}
		if c.Depth != nil {
			lim := start + *c.Depth
			if lim < end {
				end = lim
			}
		}
	}
	if start < 0 {
		start = 0
	}
	if start > len(text) || start > end {
		return 0, false
	}
	window := text[start:end]
	var idx int
	if c.Nocase {
		idx = indexFold(window, c.Pattern)
	} else {
		idx = bytes.Index(window, c.Pattern)
	}
	if idx < 0 {
		return 0, false
	}
	return start + idx, true
}

// indexFold is bytes.Index with ASCII case folding.
func indexFold(haystack, needle []byte) int {
	if len(needle) == 0 {
		return 0
	}
	if len(needle) > len(haystack) {
		return -1
	}
	first := foldByte(needle[0])
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if foldByte(haystack[i]) != first {
			continue
		}
		ok := true
		for j := 1; j < len(needle); j++ {
			if foldByte(haystack[i+j]) != foldByte(needle[j]) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
