package wayback

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/report"
	"repro/internal/stats"
)

// paperArtifactsSHA256 is the digest of renderPaperArtifacts for seed 1 at
// Scale 8 with pipeline timelines. It was recorded at the parent of the
// O(1)-reseed change (PR 21), whose whole claim is that swapping the frame
// builder's ISN generator moves no paper number; any capture-path change that
// alters a table or figure trips it.
//
// To change it deliberately (a generator, rule or analysis change that is
// supposed to move results), rerun with -v, copy the "got" digest here, and
// say in CHANGES.md which artifacts moved and why.
const paperArtifactsSHA256 = "ec30fc223783e61ca578e0a7487e5a83a23d0e3395cb3b1b5511071db7b0242f"

// TestPaperArtifactsPinned runs the same study through both byte-level
// capture paths — materialized pcap and lazy streaming — and requires Tables
// 4/5/6 and the figure data to hash to the recorded constant.
func TestPaperArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pcap", Config{Seed: 1, Scale: 8, PipelineTimelines: true, UsePcap: true}},
		{"stream", Config{Seed: 1, Scale: 8, PipelineTimelines: true, Streaming: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			if err := renderPaperArtifacts(h, run(t, tc.cfg)); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != paperArtifactsSHA256 {
				t.Errorf("paper artifacts digest = %s, want %s\n"+
					"Tables 4/5/6 or figure data moved. If that is intended, set "+
					"paperArtifactsSHA256 to the new digest and record why in CHANGES.md; "+
					"otherwise diff `waybackctl -seed 1 -scale 8 -pipeline -pcap -out D all` "+
					"against the parent commit to find the artifact that changed.",
					got, paperArtifactsSHA256)
			}
		})
	}
}

// renderPaperArtifacts writes the event-derived paper artifacts — Tables 4,
// 5 and 6 and every figure's data — as CSV in a fixed order.
func renderPaperArtifacts(w io.Writer, res *Results) error {
	for _, t := range []report.Table{res.Table4(), res.Table5(), res.Table6()} {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	for _, h := range []*stats.Histogram{res.Figure1(), res.Figure3(), res.Figure4()} {
		tab := report.HistogramTable("", "bin", h, func(i int) string { return fmt.Sprintf("%g", h.BinStart(i)) })
		if err := tab.WriteCSV(w); err != nil {
			return err
		}
	}
	f6 := res.Figure6()
	for i := range f6.Mitigated {
		fmt.Fprintf(w, "%g,%d,%d\n", f6.BinStart(i), f6.Mitigated[i], f6.Unmit[i])
	}
	series := append([]report.Series(nil), res.Figure2()...)
	for _, f := range append(res.Figure5(), res.Figures13to18()...) {
		series = append(series, report.FromECDF(f.Label, "days", f.CDF))
	}
	f7 := res.Figure7()
	series = append(series,
		report.FromECDF("mitigated", "days", f7.Mitigated),
		report.FromECDF("unmitigated", "days", f7.Unmit),
		report.FromECDF("log4shell", "days", res.Figure8().CDF),
		res.Figure10(), res.Figure11(),
		report.FromECDF("confluence", "days", res.Figure12().CDF))
	for _, s := range res.Figure9() {
		series = append(series, report.FromECDF("group "+s.Group, "days", s.CDF))
	}
	return report.WriteSeriesCSV(w, series...)
}
