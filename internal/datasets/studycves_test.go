package datasets

import (
	"sync"
	"testing"
)

// TestStudyCVEByIDResolvesEveryRow checks the id index against the table it
// indexes: every Appendix E id resolves to its own row, ids are unique, and
// an id outside the study resolves to nil.
func TestStudyCVEByIDResolvesEveryRow(t *testing.T) {
	rows := StudyCVEs()
	if len(rows) != 63 {
		t.Fatalf("%d rows, want 63", len(rows))
	}
	seen := map[string]bool{}
	for _, c := range rows {
		if seen[c.ID] {
			t.Fatalf("duplicate id %s", c.ID)
		}
		seen[c.ID] = true
		got := StudyCVEByID(c.ID)
		if got == nil {
			t.Fatalf("%s: not found", c.ID)
		}
		if *got != c {
			t.Fatalf("%s resolves to\n%+v\nwant\n%+v", c.ID, *got, c)
		}
	}
	for _, id := range []string{"", "1999-0001", "CVE-2021-44228", "2021-4422"} {
		if StudyCVEByID(id) != nil {
			t.Errorf("StudyCVEByID(%q) returned a record", id)
		}
	}
}

// TestStudyTableCallersOwnTheirCopies pins the ownership contract: mutating
// what StudyCVEs or StudyCVEByID returned changes nothing for later callers.
func TestStudyTableCallersOwnTheirCopies(t *testing.T) {
	want := StudyCVEs()

	mutated := StudyCVEs()
	mutated[0].ID = "mutated"
	mutated[0].Events = -1
	mutated[len(mutated)-1] = StudyCVE{}
	rec := StudyCVEByID("2021-44228")
	rec.Events = -1
	rec.Vendor = "mutated"

	again := StudyCVEs()
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("row %d changed after a caller mutated its copy:\n%+v\nwant\n%+v", i, again[i], want[i])
		}
	}
	if c := StudyCVEByID("2021-44228"); c.Events != 6254 || c.Vendor != "Apache" {
		t.Fatalf("lookup changed after a caller mutated its record: %+v", c)
	}
	if StudyCVEByID("mutated") != nil {
		t.Fatal("a mutated copy's id became resolvable")
	}
}

// TestStudyTableConcurrent races first use and lookups; run under -race.
func TestStudyTableConcurrent(t *testing.T) {
	ids := make([]string, 0, 63)
	for _, c := range StudyCVEs() {
		ids = append(ids, c.ID)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(g*17+i)%len(ids)]
				c := StudyCVEByID(id)
				if c == nil || c.ID != id {
					t.Errorf("lookup of %s returned %+v", id, c)
					return
				}
				c.Events++ // each caller owns its record
				if rows := StudyCVEs(); len(rows) != len(ids) {
					t.Errorf("StudyCVEs returned %d rows", len(rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
