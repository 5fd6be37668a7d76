package registry

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/rules"
)

// TestRulesetJournalSyncFailThenSuccess: a Publish whose journal fsync fails
// is reported failed and must not stay in the journal. The retry reuses its
// generation, so a leftover entry would shadow the acknowledged one on
// replay (a repeated generation ends the log) — the registry would come back
// serving the delta it said it rejected.
func TestRulesetJournalSyncFailThenSuccess(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	cfg := Config{Dir: "reg", FS: fs, Base: baseRuleset(t)}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejected := datedRule(t, `alert tcp any any -> any any (msg:"rejected"; content:"aaa-token"; sid:500020; rev:1;)`, earlyPub)
	accepted := datedRule(t, `alert tcp any any -> any any (msg:"accepted"; content:"bbb-token"; sid:500021; rev:1;)`, earlyPub)
	fired := false
	fs.FailWith(func(op, name string) error {
		if !fired && op == "sync" && strings.HasSuffix(name, "ruleset.journal") {
			fired = true
			return fault.ErrInjected
		}
		return nil
	})
	if _, err := r.Publish([]rules.DatedRule{rejected}); err == nil {
		t.Fatal("publish with a failed journal fsync reported success")
	}
	gen, err := r.Publish([]rules.DatedRule{accepted})
	if err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	r, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != gen {
		t.Fatalf("recovered generation %d, want the acknowledged %d", r.Generation(), gen)
	}
	sids := map[int]bool{}
	for _, dr := range r.Ruleset() {
		sids[dr.Rule.SID] = true
	}
	if !sids[500021] || sids[500020] {
		t.Fatalf("recovered ruleset has accepted=%v rejected=%v, want true/false", sids[500021], sids[500020])
	}
}
