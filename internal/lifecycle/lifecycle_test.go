package lifecycle

import (
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/ids"
)

func TestEventTypeNames(t *testing.T) {
	letters := map[EventType]string{
		VendorAware: "V", FixReady: "F", FixDeployed: "D",
		PublicAware: "P", ExploitPub: "X", Attacks: "A",
	}
	for e, want := range letters {
		if got := e.Letter(); got != want {
			t.Errorf("%v.Letter() = %q, want %q", e, got, want)
		}
	}
	if VendorAware.String() != "Vendor Awareness" {
		t.Errorf("String() = %q", VendorAware.String())
	}
	if len(EventTypes()) != 6 {
		t.Errorf("EventTypes = %d", len(EventTypes()))
	}
}

func TestTimelineSetGetDiff(t *testing.T) {
	var tl Timeline
	if _, ok := tl.Get(Attacks); ok {
		t.Error("empty timeline claims known event")
	}
	p := time.Date(2021, 12, 10, 0, 0, 0, 0, time.UTC)
	a := p.Add(13 * time.Hour)
	tl.Set(PublicAware, p)
	tl.Set(Attacks, a)
	if d, ok := tl.Diff(Attacks, PublicAware); !ok || d != 13*time.Hour {
		t.Errorf("Diff = %v/%v", d, ok)
	}
	if _, ok := tl.Diff(Attacks, FixReady); ok {
		t.Error("Diff with unknown event reported ok")
	}
	if sat, ok := tl.Before(PublicAware, Attacks); !ok || !sat {
		t.Errorf("Before = %v/%v", sat, ok)
	}
	if _, ok := tl.Before(FixReady, Attacks); ok {
		t.Error("Before with unknown event reported ok")
	}
}

func TestFromStudyLog4Shell(t *testing.T) {
	c := datasets.StudyCVEByID("2021-44228")
	tl := FromStudy(*c)
	p, _ := tl.Get(PublicAware)
	if !p.Equal(c.Published) {
		t.Errorf("P = %v", p)
	}
	f, okF := tl.Get(FixReady)
	d, okD := tl.Get(FixDeployed)
	if !okF || !okD || !f.Equal(d) {
		t.Error("F and D should both be set and equal (immediate install)")
	}
	if got := f.Sub(p); got != 19*time.Hour {
		t.Errorf("F-P = %v, want 19h", got)
	}
	a, _ := tl.Get(Attacks)
	if got := a.Sub(p); got != 13*time.Hour {
		t.Errorf("A-P = %v, want 13h", got)
	}
	x, _ := tl.Get(ExploitPub)
	if got := x.Sub(p); got != 4*24*time.Hour {
		t.Errorf("X-P = %v, want 4d", got)
	}
	// V = min(P, F) = P here.
	v, _ := tl.Get(VendorAware)
	if !v.Equal(p) {
		t.Errorf("V = %v, want P", v)
	}
}

func TestFromStudyVendorFirst(t *testing.T) {
	// Talos-disclosed CVE with F long before P: V must equal F.
	c := datasets.StudyCVEByID("2021-21799")
	tl := FromStudy(*c)
	v, _ := tl.Get(VendorAware)
	f, _ := tl.Get(FixReady)
	p, _ := tl.Get(PublicAware)
	if !v.Equal(f) || !v.Before(p) {
		t.Errorf("V = %v, want F (%v) before P (%v)", v, f, p)
	}
	if !tl.TalosDisclosed {
		t.Error("TalosDisclosed not carried")
	}
}

func TestFromStudyMissingEvents(t *testing.T) {
	c := datasets.StudyCVEByID("2022-44877") // no D, X, or A in the appendix
	tl := FromStudy(*c)
	if _, ok := tl.Get(FixReady); ok {
		t.Error("F should be unknown")
	}
	if _, ok := tl.Get(ExploitPub); ok {
		t.Error("X should be unknown")
	}
	if _, ok := tl.Get(Attacks); ok {
		t.Error("A should be unknown")
	}
	if _, ok := tl.Get(PublicAware); !ok {
		t.Error("P should be known")
	}
}

func TestStudyTimelinesCount(t *testing.T) {
	tls := StudyTimelines()
	if len(tls) != 63 {
		t.Fatalf("timelines = %d, want 63", len(tls))
	}
}

func TestFromPipeline(t *testing.T) {
	p := time.Date(2021, 9, 22, 0, 0, 0, 0, time.UTC) // Hikvision publication
	rulePub := map[int]time.Time{
		900027: p.Add(49*24*time.Hour + 21*time.Hour),
	}
	events := []ids.Event{
		{Time: p.Add(40 * 24 * time.Hour), CVE: "2021-36260", SID: 900027},
		{Time: p.Add(30*24*time.Hour + 4*time.Hour), CVE: "2021-36260", SID: 900027},
		{Time: p.Add(100 * 24 * time.Hour), CVE: "2021-36260", SID: 900027},
		{Time: p, CVE: "", SID: 0}, // noise must be ignored
	}
	tls := FromPipeline(events, rulePub)
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	if tl.CVE != "2021-36260" {
		t.Errorf("CVE = %s", tl.CVE)
	}
	if tl.EventCount != 3 {
		t.Errorf("EventCount = %d, want 3", tl.EventCount)
	}
	a, _ := tl.Get(Attacks)
	if got := a.Sub(p); got != 30*24*time.Hour+4*time.Hour {
		t.Errorf("A-P = %v, want 30d4h (earliest event)", got)
	}
	d, _ := tl.Get(FixDeployed)
	if got := d.Sub(p); got != 49*24*time.Hour+21*time.Hour {
		t.Errorf("D-P = %v", got)
	}
	// P and impact joined from study metadata.
	gotP, ok := tl.Get(PublicAware)
	if !ok || !gotP.Equal(p) {
		t.Errorf("P = %v/%v", gotP, ok)
	}
	if tl.Impact != 9.8 {
		t.Errorf("Impact = %v", tl.Impact)
	}
}

func TestFromPipelineNeverPublishedRule(t *testing.T) {
	rulePub := map[int]time.Time{
		900044: time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC), // sentinel
	}
	events := []ids.Event{
		{Time: time.Date(2022, 4, 2, 0, 0, 0, 0, time.UTC), CVE: "2022-22965", SID: 900044},
	}
	tls := FromPipeline(events, rulePub)
	if len(tls) != 1 {
		t.Fatalf("timelines = %d", len(tls))
	}
	if _, ok := tls[0].Get(FixDeployed); ok {
		t.Error("sentinel publication should leave D unknown")
	}
}

// Pipeline-derived timelines must agree with the appendix-derived ones on
// the events both can see, when the pipeline input is the calibrated
// workload's ground truth.
func TestPipelineAgreesWithStudy(t *testing.T) {
	studyTl := map[string]Timeline{}
	for _, tl := range StudyTimelines() {
		studyTl[tl.CVE] = tl
	}
	p := datasets.StudyCVEByID("2021-41773")
	rulePub := map[int]time.Time{900029: p.Published.Add(p.DMinusP.D)}
	events := []ids.Event{
		{Time: p.Published.Add(p.AMinusP.D), CVE: p.ID, SID: 900029},
	}
	got := FromPipeline(events, rulePub)[0]
	want := studyTl[p.ID]
	for _, e := range EventTypes() {
		gw, okW := want.Get(e)
		gg, okG := got.Get(e)
		if e == ExploitPub || !okW {
			continue
		}
		if !okG || !gg.Equal(gw) {
			t.Errorf("event %s: pipeline %v/%v, study %v", e.Letter(), gg, okG, gw)
		}
	}
}

// BenchmarkBuilderTimelines materializes the lifecycle set from an aggregate
// holding every Appendix E CVE — the join each as-of view, skill step and
// incremental fold pays per read. The study metadata join is a map lookup per
// CVE; the cost is the timelines themselves.
func BenchmarkBuilderTimelines(b *testing.B) {
	bld := NewBuilder()
	for i, c := range datasets.StudyCVEs() {
		at := c.Published.Add(time.Duration(i) * time.Hour)
		bld.AddEvents([]ids.Event{
			{Time: at, CVE: c.ID, SID: 1000 + i, Published: c.Published},
			{Time: at.Add(time.Hour), CVE: c.ID, SID: 1000 + i, Published: c.Published},
		}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tls := bld.Timelines(); len(tls) != 63 {
			b.Fatalf("%d timelines, want 63", len(tls))
		}
	}
}
