package ids

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/tcpasm"
)

func parallelFixture(t testing.TB, n int) ([]tcpasm.Session, *Engine) {
	t.Helper()
	texts := []string{
		`alert tcp any any -> any any (msg:"jndi"; content:"${jndi:"; nocase; reference:cve,2021-44228; sid:1;)`,
		`alert tcp any any -> any any (msg:"ognl"; content:"/%24%7B"; http_uri; reference:cve,2022-26134; sid:2;)`,
		`alert tcp any any -> any any (msg:"hik"; content:"/SDK/webLanguage"; http_uri; reference:cve,2021-36260; sid:3;)`,
	}
	var rs []rules.DatedRule
	for i, text := range texts {
		r, err := rules.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, rules.DatedRule{Rule: r, Published: time.Unix(int64(i*1000), 0)})
	}
	engine := NewEngine(rs, Config{PortInsensitive: true})

	payloads := []string{
		"GET /?x=${jndi:ldap://e} HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /%24%7B(x)%7D/ HTTP/1.1\r\nHost: h\r\n\r\n",
		"PUT /SDK/webLanguage HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /robots.txt HTTP/1.1\r\nHost: h\r\n\r\n", // noise
	}
	sessions := make([]tcpasm.Session, n)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range sessions {
		sessions[i] = tcpasm.Session{
			Client:     packet.Endpoint{Addr: packet.MustAddr(fmt.Sprintf("203.0.%d.%d", i/250%250, i%250+1)), Port: uint16(30000 + i%1000)},
			Server:     packet.Endpoint{Addr: packet.MustAddr("10.0.0.1"), Port: 8080},
			Start:      base.Add(time.Duration(i) * time.Second),
			ClientData: []byte(payloads[i%len(payloads)]),
			Complete:   true,
		}
	}
	return sessions, engine
}

func TestParallelMatchesSerial(t *testing.T) {
	sessions, engine := parallelFixture(t, 503)
	var serialStats, parStats ScanStats
	serial := MatchSessions(sessions, engine, &serialStats)
	for _, workers := range []int{0, 1, 2, 7} {
		par := MatchSessionsParallel(sessions, engine, &parStats, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d events vs serial %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: event %d differs:\n%+v\n%+v", workers, i, par[i], serial[i])
			}
		}
		if parStats != serialStats {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, parStats, serialStats)
		}
	}
}

func TestParallelSmallInputFallsBack(t *testing.T) {
	sessions, engine := parallelFixture(t, 3)
	events := MatchSessionsParallel(sessions, engine, nil, 8)
	if len(events) != 3 { // 3 sessions: jndi, ognl, hik — none is the noise payload
		t.Fatalf("events = %d", len(events))
	}
}

// TestMatchAllMatchesSerial: MatchAll returns exactly MatchSessions' events,
// in the same order, and hits pairs each with its session, for inputs
// smaller and larger than the stage and every width.
func TestMatchAllMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 3, 503} {
		sessions, engine := parallelFixture(t, n)
		serial := MatchSessions(sessions, engine, nil)
		var wantHits []int
		for i := range sessions {
			if _, ok := MatchSession(&sessions[i], engine); ok {
				wantHits = append(wantHits, i)
			}
		}
		for _, workers := range []int{0, 1, 2, 7} {
			stage := NewMatchStage(workers)
			events, hits := stage.MatchAll(sessions, engine)
			stage.Close()
			if !reflect.DeepEqual(events, serial) {
				t.Fatalf("n=%d workers=%d: events differ from MatchSessions", n, workers)
			}
			if !reflect.DeepEqual(hits, wantHits) {
				t.Fatalf("n=%d workers=%d: hits %v, want %v", n, workers, hits, wantHits)
			}
		}
	}
}

// TestMatchStageConcurrentSubmit: batches submitted from many goroutines are
// each delivered exactly once, matched, and never two deliveries at a time.
func TestMatchStageConcurrentSubmit(t *testing.T) {
	sessions, engine := parallelFixture(t, 400)
	const submitters, perSubmitter, size = 8, 10, 5
	stage := NewMatchStage(4)
	delivered := make(map[*MatchBatch]int)
	sink := exclusiveSink(t, func([]Event) error { return nil })
	deliver := func(b *MatchBatch) {
		delivered[b]++ // safe only because deliveries never overlap
		sink(b.Events)
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted []*MatchBatch
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				lo := (g*perSubmitter + k) * size
				b := &MatchBatch{Sessions: sessions[lo : lo+size], Engine: engine}
				mu.Lock()
				submitted = append(submitted, b)
				mu.Unlock()
				stage.Submit(b, deliver)
			}
		}(g)
	}
	wg.Wait()
	stage.Close()
	if len(delivered) != len(submitted) {
		t.Fatalf("%d batches delivered, %d submitted", len(delivered), len(submitted))
	}
	for _, b := range submitted {
		if n := delivered[b]; n != 1 {
			t.Fatalf("batch delivered %d times", n)
		}
		if want := MatchSessions(b.Sessions, engine, nil); !reflect.DeepEqual(b.Events, want) {
			t.Fatalf("batch events %+v, want %+v", b.Events, want)
		}
	}
}

// TestMatchStageNoLeak: Close stops every worker the stage started.
func TestMatchStageNoLeak(t *testing.T) {
	sessions, engine := parallelFixture(t, 100)
	before := runtime.NumGoroutine()
	stage := NewMatchStage(7)
	stage.MatchAll(sessions, engine)
	stage.Close()
	checkNoLeak(t, before)
}

func BenchmarkMatchSessionsSerial(b *testing.B) {
	sessions, engine := parallelFixture(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchSessions(sessions, engine, nil)
	}
}

func BenchmarkMatchSessionsParallel(b *testing.B) {
	sessions, engine := parallelFixture(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchSessionsParallel(sessions, engine, nil, 0)
	}
}

func TestRuleProfiling(t *testing.T) {
	sessions, engine := parallelFixture(t, 400)
	MatchSessionsParallel(sessions, engine, nil, 4)
	prof := engine.Profile()
	if len(prof) != 3 {
		t.Fatalf("profile rules = %d", len(prof))
	}
	var totalMatched int64
	for _, p := range prof {
		if p.Matched > p.Evaluated {
			t.Errorf("sid %d matched %d > evaluated %d", p.SID, p.Matched, p.Evaluated)
		}
		totalMatched += p.Matched
	}
	// 400 sessions cycle 4 payloads; 3 of 4 match -> 300 matches.
	if totalMatched != 300 {
		t.Errorf("total matched = %d, want 300", totalMatched)
	}
	// Sorted hottest-first.
	for i := 1; i < len(prof); i++ {
		if prof[i-1].Evaluated < prof[i].Evaluated {
			t.Error("profile not sorted by evaluations")
		}
	}
	engine.ResetProfile()
	for _, p := range engine.Profile() {
		if p.Evaluated != 0 || p.Matched != 0 {
			t.Errorf("sid %d counters survive reset", p.SID)
		}
	}
}
