package simtest

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/tcpasm"
)

// TestRescanCrashConverges is the issue's crash-mid-reload / crash-mid-rescan
// acceptance check: a registry and event store on one simulated filesystem
// ingest a workload under the base ruleset, then a publication with
// earlier-dated signatures lands — and the driver power-cycles the process at
// every mutating filesystem operation of the publish and the rescan in turn
// (a deterministic sweep, not a probabilistic schedule). After each crash the
// process restarts, retries per the operator contract (re-publish on a failed
// publish, re-run the rescan while the pending marker stands), and the run
// must converge to exactly the labels a cold run over the final ruleset
// produces.
func TestRescanCrashConverges(t *testing.T) {
	for _, seed := range seedList() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runRescanCrashSweep(t, seed)
		})
	}
}

func runRescanCrashSweep(t *testing.T, seed int64) {
	mkRule := func(text string, pub time.Time) rules.DatedRule {
		r, err := rules.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return rules.DatedRule{Rule: r, Published: pub}
	}
	base := []rules.DatedRule{mkRule(
		`alert tcp any any -> any any (msg:"base"; content:"alpha-token"; reference:cve,2022-1000; sid:910001; rev:1;)`,
		time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC))}
	delta := []rules.DatedRule{
		mkRule(`alert tcp any any -> any any (msg:"early"; content:"alpha-token"; reference:cve,2021-2000; sid:910002; rev:1;)`,
			time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)),
		mkRule(`alert tcp any any -> any any (msg:"late sig"; content:"beta-token"; reference:cve,2021-3000; sid:910003; rev:1;)`,
			time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)),
	}
	engCfg := ids.Config{PortInsensitive: true}

	sessions := make([]tcpasm.Session, 30)
	payloads := []string{"GET /alpha-token HTTP/1.1\r\n\r\n", "GET /beta-token HTTP/1.1\r\n\r\n", "GET / HTTP/1.1\r\n\r\n"}
	start := time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC)
	for i := range sessions {
		sessions[i] = tcpasm.Session{
			Client:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.7"), Port: uint16(40000 + i)},
			Server:     packet.Endpoint{Addr: packet.MustAddr("18.204.7.9"), Port: 80},
			Start:      start.Add(time.Duration(i) * time.Minute),
			ClientData: []byte(payloads[i%len(payloads)]),
			Complete:   true,
		}
	}

	// Cold truth: every session labeled once by the final ruleset.
	finalEng := ids.NewEngine(rules.MergeDated(base, delta), engCfg)
	want := map[string]int{}
	for i := range sessions {
		if ev, ok := ids.MatchSession(&sessions[i], finalEng); ok {
			want[labelKeyOf(&ev)]++
		}
	}
	if len(want) == 0 {
		t.Fatal("cold run matched nothing; fixture broken")
	}

	fs := fault.NewSimFS(seed, fault.Profile{})
	open := func() (*eventstore.Store, *registry.Registry) {
		t.Helper()
		store, err := eventstore.Open("store", eventstore.Options{FS: fs})
		if err != nil {
			t.Fatalf("reopening store: %v", err)
		}
		reg, err := registry.Open(registry.Config{Dir: "rules", FS: fs, Base: base, Engine: engCfg})
		if err != nil {
			t.Fatalf("reopening registry: %v", err)
		}
		return store, reg
	}
	store, reg := open()

	// Ingest under the base ruleset, fault-free: events committed, every
	// session's digest durable.
	var evs []ids.Event
	var digests []registry.Digest
	for i := range sessions {
		ev, ok := ids.MatchSession(&sessions[i], reg.Engine())
		var evp *ids.Event
		if ok {
			evs = append(evs, ev)
			evp = &ev
		}
		digests = append(digests, registry.DigestOf(&sessions[i], evp, 0))
	}
	if err := store.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.RecordDigests(reg.Engine(), digests); err != nil {
		t.Fatal(err)
	}
	if err := reg.SyncDigests(); err != nil {
		t.Fatal(err)
	}

	// Sweep crash points through publish + rescan. publishAcked is the
	// operator's own memory: a Publish that returned an error is retried
	// after the restart (republishing the same delta is a no-op merge), one
	// that returned success never is.
	publishAcked := false
	stride := 1 + seed%4
	crashes := 0
	for crashAt := 1 + seed%3; ; crashAt += stride {
		var ops atomic.Int64
		fs.FailWith(func(op, name string) error {
			if ops.Add(1) >= crashAt {
				return fault.ErrCrashed
			}
			return nil
		})
		err := func() error {
			if !publishAcked {
				if _, err := reg.Publish(delta); err != nil {
					return err
				}
				publishAcked = true
			}
			if reg.RescanNeeded() {
				if _, err := reg.Rescan(store); err != nil {
					return err
				}
			}
			return nil
		}()
		fs.FailWith(nil)
		if err == nil && publishAcked && !reg.RescanNeeded() {
			break
		}
		// Power loss: unsynced state reverts, the process restarts.
		crashes++
		if crashes > 10_000 {
			t.Fatalf("crash sweep did not converge (last error: %v)", err)
		}
		fs.Crash()
		reg.Close()
		store.Close()
		fs.Restart()
		store, reg = open()
	}
	defer store.Close()
	defer reg.Close()
	if crashes == 0 {
		t.Fatal("sweep never crashed; crash points are not firing")
	}

	// One final power loss at rest: the converged labels must be durable.
	fs.Crash()
	reg.Close()
	store.Close()
	fs.Restart()
	store, reg = open()

	got := map[string]int{}
	events := store.Snapshot().Events()
	for i := range events {
		got[labelKeyOf(&events[i])]++
	}
	if len(got) != len(want) {
		t.Fatalf("after %d crashes: %d distinct labels, cold run has %d\ngot %v\nwant %v",
			crashes, len(got), len(want), got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("after %d crashes: label %q count %d, cold run %d", crashes, k, got[k], n)
		}
	}
	t.Logf("converged to cold-run labels through %d mid-publish/mid-rescan crashes", crashes)
}

// labelKeyOf identifies an event by session identity and full label,
// including the publication date the paper's analysis keys on.
func labelKeyOf(ev *ids.Event) string {
	return fmt.Sprintf("%d|%s|%s|%d|%s|%d", ev.Time.UnixNano(), ev.Src, ev.Dst, ev.SID, ev.CVE, ev.Published.UnixNano())
}
