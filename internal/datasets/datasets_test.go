package datasets

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParsePaperDuration(t *testing.T) {
	cases := []struct {
		in    string
		known bool
		want  time.Duration
	}{
		{"1d 0h", true, 24 * time.Hour},
		{"0d 19h", true, 19 * time.Hour},
		{"-121d 10h", true, -(121*24 + 10) * time.Hour},
		{"-0d 7h", true, -7 * time.Hour},
		{"105d5h", true, (105*24 + 5) * time.Hour},
		{"-", false, 0},
		{"", false, 0},
		{"313d 0h", true, 313 * 24 * time.Hour},
	}
	for _, c := range cases {
		got, err := ParsePaperDuration(c.in)
		if err != nil {
			t.Errorf("ParsePaperDuration(%q): %v", c.in, err)
			continue
		}
		if got.Known != c.known || got.D != c.want {
			t.Errorf("ParsePaperDuration(%q) = %v/%v, want %v/%v", c.in, got.Known, got.D, c.known, c.want)
		}
	}
}

func TestParsePaperDurationErrors(t *testing.T) {
	for _, s := range []string{"12h", "xd 1h", "1d xh", "1d 2h3m"} {
		if _, err := ParsePaperDuration(s); err == nil {
			t.Errorf("ParsePaperDuration accepted %q", s)
		}
	}
}

func TestFormatPaperDurationRoundTrip(t *testing.T) {
	for _, s := range []string{"1d 0h", "-121d 10h", "0d 19h", "-0d 7h", "-"} {
		d := MustPaperDuration(s)
		if got := FormatPaperDuration(d); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestStudyCVEsCount(t *testing.T) {
	cves := StudyCVEs()
	if len(cves) != 63 {
		t.Fatalf("StudyCVEs = %d, want 63 (paper Section 4)", len(cves))
	}
}

func TestStudyCVEsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range StudyCVEs() {
		if seen[c.ID] {
			t.Errorf("duplicate CVE %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestStudyCVEsInWindow(t *testing.T) {
	for _, c := range StudyCVEs() {
		if c.Published.Before(StudyWindow.Start) || c.Published.After(StudyWindow.End) {
			t.Errorf("%s published %s outside study window", c.ID, c.Published)
		}
	}
}

func TestStudyCVEsPaperAggregates(t *testing.T) {
	cves := StudyCVEs()

	// Finding 2: exactly 5 CVEs disclosed by the IDS vendor.
	talos := 0
	for _, c := range cves {
		if c.TalosDisclosed {
			talos++
		}
	}
	if talos != 5 {
		t.Errorf("Talos-disclosed = %d, want 5", talos)
	}

	// Finding 6: only 8 CVEs had fixes deployed before publication, and 5
	// of those were disclosed by an IDS-vendor affiliate.
	fBeforeP, fBeforePTalos := 0, 0
	for _, c := range cves {
		if c.DMinusP.Known && c.DMinusP.D < 0 {
			fBeforeP++
			if c.TalosDisclosed {
				fBeforePTalos++
			}
		}
	}
	if fBeforeP != 8 {
		t.Errorf("D<P count = %d, want 8", fBeforeP)
	}
	if fBeforePTalos != 5 {
		t.Errorf("D<P Talos count = %d, want 5", fBeforePTalos)
	}

	// Finding 1: studied CVEs skew high-impact; the median is 9.8.
	impacts := StudyImpactSamples()
	n := 0
	for _, v := range impacts {
		if v >= 9.8 {
			n++
		}
	}
	if n < len(impacts)/2 {
		t.Errorf("only %d/%d CVEs at 9.8+; median should be 9.8", n, len(impacts))
	}

	// Vendor and CWE diversity (Section 4 reports 40 vendors, 25 CWEs; the
	// reconstruction must preserve strong diversity).
	vendors, cwes := map[string]bool{}, map[string]bool{}
	for _, c := range StudyCVEs() {
		vendors[c.Vendor], cwes[c.CWE] = true, true
	}
	if v := len(vendors); v < 30 {
		t.Errorf("distinct vendors = %d, want >= 30", v)
	}
	if w := len(cwes); w < 15 {
		t.Errorf("distinct CWEs = %d, want >= 15", w)
	}

	// Total events are in the paper's order of magnitude (146 k reported;
	// the printed appendix sums slightly lower).
	total := TotalStudyEvents()
	if total < 100000 || total > 160000 {
		t.Errorf("total events = %d, want ~10^5", total)
	}
}

func TestStudyCVEByID(t *testing.T) {
	c := StudyCVEByID("2021-44228")
	if c == nil {
		t.Fatal("Log4Shell missing from study data")
	}
	if c.Events != 6254 || c.Impact != 10.0 {
		t.Errorf("Log4Shell row = %+v", c)
	}
	if got := c.AMinusP.D; got != 13*time.Hour {
		t.Errorf("Log4Shell A-P = %v, want 13h", got)
	}
	if StudyCVEByID("1999-0001") != nil {
		t.Error("unknown CVE returned a record")
	}
}

func TestLog4ShellGroups(t *testing.T) {
	groups := Log4ShellGroups()
	if len(groups) != 5 {
		t.Fatalf("groups = %d, want 5 (A–E)", len(groups))
	}
	if Log4ShellSIDCount() != 15 {
		t.Errorf("SID count = %d, want 15", Log4ShellSIDCount())
	}
	// Groups must be in release order.
	for i := 1; i < len(groups); i++ {
		if groups[i-1].DMinusP.D >= groups[i].DMinusP.D {
			t.Errorf("group %s (D-P %v) not after group %s (D-P %v)",
				groups[i].Name, groups[i].DMinusP.D, groups[i-1].Name, groups[i-1].DMinusP.D)
		}
	}
	// Group A deployed 9 hours after publication.
	if got := groups[0].Deployed().Sub(Log4ShellPublished); got != 9*time.Hour {
		t.Errorf("group A deployment offset = %v", got)
	}
}

func TestGeneratePopulationDeterministic(t *testing.T) {
	a := GeneratePopulation(PopulationConfig{Seed: 1, N: 500})
	b := GeneratePopulation(PopulationConfig{Seed: 1, N: 500})
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between same-seed runs", i)
		}
	}
	c := GeneratePopulation(PopulationConfig{Seed: 2, N: 500})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestGeneratePopulationShape(t *testing.T) {
	pop := GeneratePopulation(PopulationConfig{Seed: 7, N: 20000})
	var sum float64
	hi := 0
	for _, r := range pop {
		if r.CVSS < 0 || r.CVSS > 10 {
			t.Fatalf("CVSS out of range: %v", r.CVSS)
		}
		sum += r.CVSS
		if r.CVSS >= 9.0 {
			hi++
		}
		if r.Published.Before(StudyWindow.Start) || r.Published.After(StudyWindow.End) {
			t.Fatalf("publication %v outside window", r.Published)
		}
	}
	mean := sum / float64(len(pop))
	if mean < 6.0 || mean > 8.0 {
		t.Errorf("population mean CVSS = %.2f, want NVD-like ~7", mean)
	}
	// The general population must NOT be critical-dominated (Figure 2:
	// studied CVEs skew far above the population).
	if frac := float64(hi) / float64(len(pop)); frac > 0.25 {
		t.Errorf("population critical fraction = %.2f, too high", frac)
	}
}

func TestGenerateKEVCalibration(t *testing.T) {
	cat := GenerateKEV(KEVConfig{Seed: 3})
	if len(cat.Entries) != 424 {
		t.Fatalf("entries = %d, want 424", len(cat.Entries))
	}
	if len(cat.Overlap) != 44 {
		t.Fatalf("overlap = %d, want 44", len(cat.Overlap))
	}
	// All additions happen after the KEV catalog existed.
	for _, e := range cat.Entries {
		if e.DateAdded.Before(KEVStart) {
			t.Fatalf("%s added %v before KEV start", e.ID, e.DateAdded)
		}
	}
	// Pre-publication exploitation rate ≈ 18% (Finding 16). The overlap
	// CVEs and KEV-start clamping shift it slightly; accept 10–26%.
	pre := 0
	for _, v := range cat.AMinusPSamples() {
		if v < 0 {
			pre++
		}
	}
	frac := float64(pre) / float64(len(cat.Entries))
	if frac < 0.10 || frac > 0.26 {
		t.Errorf("A<P fraction = %.3f, want ~0.18", frac)
	}
	// The high-volume case-study CVEs must be in the overlap.
	for _, id := range []string{"2021-44228", "2022-26134", "2021-36260"} {
		if _, ok := cat.Overlap[id]; !ok {
			t.Errorf("%s missing from KEV overlap", id)
		}
	}
}

func TestGenerateKEVDscopeFirstShare(t *testing.T) {
	cat := GenerateKEV(KEVConfig{Seed: 3})
	dscopeFirst, over30 := 0, 0
	n := 0
	for id, e := range cat.Overlap {
		c := StudyCVEByID(id)
		if c == nil || !c.AMinusP.Known {
			continue
		}
		n++
		firstAttack := c.Published.Add(c.AMinusP.D)
		delta := e.DateAdded.Sub(firstAttack)
		if delta > 0 {
			dscopeFirst++
			if delta > 30*24*time.Hour {
				over30++
			}
		}
	}
	if n == 0 {
		t.Fatal("no joinable overlap CVEs")
	}
	// Finding 17: 59% telescope-first; 50% of shared CVEs seen >30d early.
	fracFirst := float64(dscopeFirst) / float64(n)
	if math.Abs(fracFirst-0.59) > 0.12 {
		t.Errorf("telescope-first fraction = %.2f, want ~0.59", fracFirst)
	}
	frac30 := float64(over30) / float64(n)
	if frac30 < 0.30 || frac30 > 0.65 {
		t.Errorf(">30d-early fraction = %.2f, want ~0.50", frac30)
	}
}

func TestKEVImpactSkewBetweenPopulationAndStudy(t *testing.T) {
	// Figure 2 / Finding 15: KEV skews high, but less than studied CVEs.
	pop := GeneratePopulation(PopulationConfig{Seed: 5, N: 10000})
	kev := GenerateKEV(KEVConfig{Seed: 5})
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	mPop := mean(ImpactSamples(pop))
	mKev := mean(kev.ImpactSamples())
	mStudy := mean(StudyImpactSamples())
	if !(mPop < mKev && mKev < mStudy) {
		t.Errorf("impact ordering violated: pop %.2f, kev %.2f, study %.2f", mPop, mKev, mStudy)
	}
}

func TestJSONPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kev.json")
	cat := GenerateKEV(KEVConfig{Seed: 9})
	if err := WriteJSON(path, cat.Entries); err != nil {
		t.Fatal(err)
	}
	var got []KEVEntry
	if err := ReadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cat.Entries) {
		t.Fatalf("round trip length %d != %d", len(got), len(cat.Entries))
	}
	for i := range got {
		if !got[i].DateAdded.Equal(cat.Entries[i].DateAdded) || got[i].ID != cat.Entries[i].ID {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	var v any
	if err := ReadJSON(filepath.Join(t.TempDir(), "missing.json"), &v); err == nil {
		t.Error("ReadJSON of missing file succeeded")
	}
}

func TestStudyCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	orig := StudyCVEs()
	if err := WriteStudyCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStudyCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip %d rows, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, got[i], orig[i])
		}
	}
}

func TestReadStudyCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header": "a,b\n",
		"bad date": "cve,published,events,description,vendor,cwe,impact,d_minus_p,x_minus_p,a_minus_p,exploitability,talos_disclosed\n" +
			"2021-1,notadate,1,d,v,c,9.8,-,-,-,,false\n",
		"bad events": "cve,published,events,description,vendor,cwe,impact,d_minus_p,x_minus_p,a_minus_p,exploitability,talos_disclosed\n" +
			"2021-1,2021-05-01,x,d,v,c,9.8,-,-,-,,false\n",
		"bad duration": "cve,published,events,description,vendor,cwe,impact,d_minus_p,x_minus_p,a_minus_p,exploitability,talos_disclosed\n" +
			"2021-1,2021-05-01,1,d,v,c,9.8,12q,-,-,,false\n",
		"empty id": "cve,published,events,description,vendor,cwe,impact,d_minus_p,x_minus_p,a_minus_p,exploitability,talos_disclosed\n" +
			",2021-05-01,1,d,v,c,9.8,-,-,-,,false\n",
	}
	for name, input := range cases {
		if _, err := ReadStudyCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
