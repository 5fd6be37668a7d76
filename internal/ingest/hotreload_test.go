package ingest

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/registry"
	"repro/internal/rules"
)

// datedTestRules returns the three test signatures as dated rules, so a
// registry can serve them as base + published delta.
func datedTestRules(t testing.TB) []rules.DatedRule {
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
		rs = append(rs, rules.DatedRule{Rule: r, Published: time.Date(2021, 12, 1+i, 0, 0, 0, 0, time.UTC)})
	}
	return rs
}

// labelKey extends eventKey with the publication date, so parity checks also
// cover the paper's earliest-published dating, not just which rule hit.
func labelKey(ev ids.Event) string {
	return fmt.Sprintf("%s|%d", eventKey(ev), ev.Published.UnixNano())
}

func collectLabelKeys(events []ids.Event) map[string]int {
	m := make(map[string]int, len(events))
	for _, ev := range events {
		m[labelKey(ev)]++
	}
	return m
}

// TestHotReloadParity is the issue's hot-reload acceptance test: a pipeline
// starts on a reduced ruleset, the full ruleset is published mid-stream (an
// RCU engine swap between batches), and after the retroactive rescan the
// store's resolved labels are identical — event for event, publication date
// for publication date — to a cold run over the final ruleset. Zero sessions
// dropped, none double-matched, for every reassembly shard count.
func TestHotReloadParity(t *testing.T) {
	all := datedTestRules(t)
	sessions := testSessions(900)
	capDir := t.TempDir()
	files := writeSegments(t, capDir, "dscope", sessions, 64<<10)
	if len(files) < 3 {
		t.Fatalf("only %d segments; lower maxBytes", len(files))
	}

	// Cold truth: the same capture scanned once with the final ruleset.
	src, err := pcapio.OpenFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	coldEvents, coldStats, err := ids.ScanCapture(src, ids.NewEngine(all, ids.Config{PortInsensitive: true}))
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(coldEvents) == 0 {
		t.Fatal("cold scan found nothing; fixture broken")
	}
	want := collectLabelKeys(coldEvents)

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := t.TempDir()
			reg, err := registry.Open(registry.Config{
				Dir:    filepath.Join(base, "rules"),
				Base:   all[:1],
				Engine: ids.Config{PortInsensitive: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			store, err := eventstore.Open(filepath.Join(base, "store"), eventstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

			p, err := Start(Config{
				Dir: capDir, Prefix: "dscope",
				EngineSource: reg.Engine, Digests: reg,
				Store:        store,
				PollInterval: 2 * time.Millisecond, FlushIdle: 50 * time.Millisecond,
				BatchSessions: 32, DecodeShards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Publish the remaining rules once matching is underway, so the
			// swap lands between batches of a live stream. If the pipeline
			// outruns the publish, the rescan below still converges — but
			// with 900 sessions it reliably does not.
			deadline := time.Now().Add(30 * time.Second)
			for p.Metrics().Sessions < 64 {
				if time.Now().After(deadline) {
					t.Fatalf("pipeline never started matching: %+v", p.Metrics())
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := reg.Publish(all[1:]); err != nil {
				t.Fatal(err)
			}

			for !p.Metrics().Idle() {
				if time.Now().After(deadline) {
					t.Fatalf("pipeline never went idle: %+v", p.Metrics())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			// Every reassembled session left a digest: nothing was dropped
			// in the swap, nothing was matched twice.
			if n := reg.DigestCount(); n != int64(coldStats.Sessions) {
				t.Fatalf("digests %d, cold run saw %d sessions", n, coldStats.Sessions)
			}

			// The retroactive rescan re-attributes the sessions matched
			// before the swap; the resolved snapshot is the cold run.
			if !reg.RescanNeeded() {
				t.Fatal("publish did not leave a pending rescan")
			}
			if _, err := reg.Rescan(store); err != nil {
				t.Fatal(err)
			}
			got := collectLabelKeys(mustSnapshot(t, store).Events())
			if len(got) != len(want) {
				t.Fatalf("resolved %d distinct labels, cold run %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("label %s: resolved %d, cold %d", k, got[k], n)
				}
			}
		})
	}
}
