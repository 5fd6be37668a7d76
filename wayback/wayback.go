// Package wayback is the public entry point of the CVE Wayback Machine
// reproduction: it wires the full measurement pipeline together — workload
// generation (the simulated adversarial Internet), the DSCOPE telescope
// (simulated capture or byte-exact pcap), TCP reassembly, the dated Snort
// engine with port-insensitive post-facto evaluation, lifecycle assembly,
// and the paper's analyses — and exposes one method per table and figure of
// the paper's evaluation.
//
// Typical use:
//
//	study, err := wayback.NewStudy(wayback.Config{Seed: 1, Scale: 50})
//	if err != nil { ... }
//	res, err := study.Run()
//	if err != nil { ... }
//	fmt.Print(res.Table4().String())
package wayback

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ids"
	"repro/internal/lifecycle"
	"repro/internal/pcapio"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/scanner"
	"repro/internal/stats"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
)

// Config controls a study run.
type Config struct {
	// Seed drives every random choice; equal seeds give identical studies.
	Seed int64
	// Scale divides the paper's per-CVE event volumes (Scale 1 ≈ 115 k
	// exploit events). Zero means 50 (~2.3 k events), which keeps example
	// runs fast while preserving every CVE.
	Scale int
	// Noise is the number of non-exploit background sessions. Zero means
	// one tenth of the exploit volume.
	Noise int
	// UsePcap routes capture through real pcap bytes and the full
	// decode/reassemble path instead of the fast session path. Slower,
	// byte-exact; results are identical (verified by tests).
	UsePcap bool
	// PortSensitive disables the paper's port-insensitive rule rewriting
	// (used by the ablation bench). Default false: rules are rewritten.
	PortSensitive bool
	// PipelineTimelines derives lifecycles from the measured pipeline
	// output instead of the embedded Appendix E offsets. Appendix
	// timelines (the default) reproduce the paper's Table 4 exactly;
	// pipeline timelines validate the end-to-end measurement path.
	PipelineTimelines bool
	// LegacyScans adds sessions exploiting longstanding pre-study CVEs —
	// the bulk of real telescope traffic, which the paper's signature
	// filter excludes from analysis. Zero disables.
	LegacyScans int
	// UnfilteredRules skips the paper's filter-to-study-window step, so
	// legacy CVEs appear in the attributed events (the filtering
	// ablation). Default false: the paper's methodology.
	UnfilteredRules bool
	// ReasmShards is the flow-sharded reassembly width of the pcap capture
	// scan (UsePcap). The streamed capture (Streaming, RunStream)
	// reassembles each segment on its own goroutine, so there the width is
	// StreamSegments. Zero picks min(8, GOMAXPROCS); every value yields
	// identical events.
	ReasmShards int
	// MatchWorkers sizes the match stage (ids.MatchStage) on every path.
	// Zero picks GOMAXPROCS.
	MatchWorkers int
	// Streaming synthesizes the capture lazily straight into the sharded
	// scan front-end: no pcap bytes are materialized in memory or on disk,
	// yet events are byte-identical to the UsePcap path (parity-tested).
	// Takes precedence over UsePcap.
	Streaming bool
	// StreamSegments is how many virtual capture segments the streamed
	// capture splits into, one decode-and-reassembly goroutine each: the
	// streamed scan's reassembly width. Zero means min(8, GOMAXPROCS).
	// Every value yields identical events.
	StreamSegments int
	// Boost multiplies per-CVE event counts after the Scale division
	// (scanner.Config.Boost). Zero or one means off; stress benchmarks use
	// it to push volume past paper scale.
	Boost int
	// OverlapPolicy selects how reassembly resolves conflicting overlapping
	// retransmits on the capture paths (UsePcap, Streaming). Zero is
	// first-wins; either way conflicting sessions are flagged Ambiguous.
	OverlapPolicy tcpasm.OverlapPolicy
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 50
	}
	return c
}

// Study is a configured, compiled study: ruleset parsed, engine built.
type Study struct {
	cfg     Config
	engine  *ids.Engine
	rules   []rules.DatedRule
	ruleset map[int]time.Time
	tel     *telescope.Telescope

	// kev is the comparison catalog: deterministic in the seed, so every
	// Results of this study shares it.
	kev datasets.KEVCatalog

	// stream is the most recent streaming capture (StreamCapture), kept after
	// the run so monitoring surfaces can report final totals. See
	// StreamMetrics.
	stream atomic.Pointer[telescope.Stream]
}

// StreamMetrics snapshots the capture generator's progress — blueprints
// drawn, sessions routed, frames synthesized, and the generator's lead over
// the scan. ok is false until a streaming run has started. Safe from any
// goroutine while a run is in flight; after the run it reports the final
// totals. This is the /metrics feed for streaming deployments
// (cmd/waybackfeed -stream).
func (s *Study) StreamMetrics() (telescope.StreamMetrics, bool) {
	st := s.stream.Load()
	if st == nil {
		return telescope.StreamMetrics{}, false
	}
	return st.Metrics(), true
}

// NewStudy compiles the study ruleset and telescope.
func NewStudy(cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()
	// The engine gets the FULL signature set minus the paper's filter: only
	// rules for CVEs published during the study window are analyzed
	// (Section 3.1). The unfiltered variant exists for the ablation.
	rs, err := scanner.FullRuleset()
	if err != nil {
		return nil, fmt.Errorf("wayback: building ruleset: %w", err)
	}
	if !cfg.UnfilteredRules {
		rs = rules.FilterByCVE(rs, func(cve string) bool {
			return datasets.StudyCVEByID(cve) != nil
		})
	}
	pub, err := scanner.SIDPublication()
	if err != nil {
		return nil, err
	}
	return &Study{
		cfg:     cfg,
		engine:  ids.NewEngine(rs, ids.Config{PortInsensitive: !cfg.PortSensitive}),
		rules:   rs,
		ruleset: pub,
		tel:     telescope.NewSim(telescope.SimConfig{Seed: cfg.Seed}),
		kev:     datasets.GenerateKEV(datasets.KEVConfig{Seed: cfg.Seed}),
	}, nil
}

// Results carries everything the analyses need.
type Results struct {
	cfg Config
	// Events are the IDS-attributed exploit events.
	Events []ids.Event
	// Stats summarizes the capture scan.
	Stats ids.ScanStats
	// Coverage summarizes telescope address-space churn.
	Coverage telescope.CoverageStats
	// Timelines are the per-CVE lifecycles used for analysis.
	Timelines []lifecycle.Timeline
	// KEV is the comparison catalog.
	KEV datasets.KEVCatalog

	baselines map[core.Pair]float64

	// eventsFn lazily materializes Events for Results built from an as-of
	// view: tables and lifecycles come from checkpointed aggregates, so the
	// raw event set is only loaded if a figure (or Table 5) needs the
	// distribution. Guarded by eventsOnce; see events().
	eventsFn   func() ([]ids.Event, error)
	eventsOnce sync.Once
	eventsErr  error
}

// events returns the event set, materializing it on first use when this
// Results was built lazily (ResultsFromView). Safe for concurrent use — the
// daemon serves one cached Results to many requests. A load failure leaves
// the set empty; MaterializeEvents surfaces the error to callers that can
// report it.
func (r *Results) events() []ids.Event {
	r.eventsOnce.Do(func() {
		if r.Events == nil && r.eventsFn != nil {
			r.Events, r.eventsErr = r.eventsFn()
		}
	})
	return r.Events
}

// MaterializeEvents forces the lazy event set and reports any load error.
// Results built eagerly (Run, ResultsFromEvents) always return nil.
func (r *Results) MaterializeEvents() error {
	r.events()
	return r.eventsErr
}

// scannerConfig is the workload configuration every capture path shares.
func (s *Study) scannerConfig() scanner.Config {
	return scanner.Config{
		Seed:        s.cfg.Seed,
		Scale:       s.cfg.Scale,
		Noise:       s.cfg.Noise,
		LegacyScans: s.cfg.LegacyScans,
		Boost:       s.cfg.Boost,
	}
}

// streamSegments resolves the streamed capture's segment count.
func (s *Study) streamSegments() int {
	if s.cfg.StreamSegments > 0 {
		return s.cfg.StreamSegments
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// StreamCapture starts the zero-materialization capture: a lazy blueprint
// stream feeding per-flow-partitioned virtual capture segments whose frames
// are synthesized on demand (see telescope.Stream). The caller owns the
// stream and must drain every segment or Close it; StreamMetrics reports it.
func (s *Study) StreamCapture() (*telescope.Stream, error) {
	src, err := scanner.NewStream(s.scannerConfig())
	if err != nil {
		return nil, fmt.Errorf("wayback: building workload stream: %w", err)
	}
	st := s.tel.Stream(src, telescope.StreamConfig{Segments: s.streamSegments()})
	s.stream.Store(st)
	return st, nil
}

// scanConfig is the ids.ScanConfig every capture scan shares.
func (s *Study) scanConfig() ids.ScanConfig {
	return ids.ScanConfig{Shards: s.cfg.ReasmShards, MatchWorkers: s.cfg.MatchWorkers,
		Assembler: tcpasm.Config{OverlapPolicy: s.cfg.OverlapPolicy}}
}

// Run generates the workload, captures it, runs the IDS, and assembles
// lifecycles. The Streaming and UsePcap captures differ only in where their
// packet sources come from: both make the one scan call, proven
// byte-identical to the serial ids.ScanCapture (parity tests in packages ids
// and wayback). The default matches the telescope's sessions directly.
func (s *Study) Run() (*Results, error) {
	var srcs []pcapio.PacketSource
	if s.cfg.Streaming {
		st, err := s.StreamCapture()
		if err != nil {
			return nil, err
		}
		defer st.Close()
		srcs = st.PacketSources()
	} else {
		bps, err := scanner.Build(s.scannerConfig())
		if err != nil {
			return nil, fmt.Errorf("wayback: building workload: %w", err)
		}
		if !s.cfg.UsePcap {
			sessions := s.tel.Sessions(bps)
			res := &Results{Coverage: telescope.Coverage(sessions)}
			res.Events = ids.MatchSessionsParallel(sessions, s.engine, &res.Stats, s.cfg.MatchWorkers)
			return s.finish(res, nil), nil
		}
		var buf bytes.Buffer
		w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
		if err != nil {
			return nil, err
		}
		if err := s.tel.WritePcap(bps, w); err != nil {
			return nil, fmt.Errorf("wayback: writing capture: %w", err)
		}
		r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		srcs = []pcapio.PacketSource{r}
	}
	events, stats, err := ids.ScanCaptureSharded(srcs, s.engine, s.scanConfig())
	if err != nil {
		return nil, fmt.Errorf("wayback: scanning capture: %w", err)
	}
	return s.finish(&Results{Events: events, Stats: stats}, nil), nil
}

// RunStream is Run in full streaming mode: generation, frame synthesis,
// reassembly, and matching all overlap, and attributed events flow to sink
// in completion order instead of materializing. Config.MatchWorkers
// goroutines match and deliver, so sink may be called from any of them, but
// never concurrently; each call owns its slice, and nil drops the events.
// Results.Events stays nil — exact aggregate Stats and the appendix-derived
// timelines are still filled in, so the tables that don't need the raw event
// distribution work as usual. Configurations that need the full event set
// (PipelineTimelines) must use Run.
func (s *Study) RunStream(sink func([]ids.Event) error) (*Results, error) {
	if s.cfg.PipelineTimelines {
		return nil, fmt.Errorf("wayback: RunStream cannot derive pipeline timelines; use Run")
	}
	st, err := s.StreamCapture()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	stats, err := ids.ScanCaptureStreamed(st.PacketSources(), s.engine, s.scanConfig(), sink)
	if err != nil {
		return nil, fmt.Errorf("wayback: streaming scan: %w", err)
	}
	return s.finish(&Results{Stats: stats}, nil), nil
}

// finish is the one Results finisher: given a Results holding its events (or
// their lazy loader) and stats, it fills in what every construction path
// shares — configuration, baselines, analysis timelines and the seeded KEV
// catalog. Under Config.PipelineTimelines the timelines are the measured
// ones: from measured when the caller holds them as an aggregate (an as-of
// view, the incremental fold), else derived from the Results' own events.
func (s *Study) finish(res *Results, measured func() []lifecycle.Timeline) *Results {
	res.cfg, res.baselines, res.KEV = s.cfg, core.PublishedBaselines(), s.kev
	switch {
	case !s.cfg.PipelineTimelines:
		res.Timelines = lifecycle.StudyTimelines()
	case measured != nil:
		res.Timelines = measured()
	default:
		res.Timelines = lifecycle.FromPipeline(res.events(), s.ruleset)
	}
	return res
}

// Engine exposes the compiled IDS engine (for custom pipelines and the
// live-telescope example).
func (s *Study) Engine() *ids.Engine { return s.engine }

// RulePublications exposes the SID → publication-time map.
func (s *Study) RulePublications() map[int]time.Time { return s.ruleset }

// DatedRuleset exposes the compiled study ruleset with per-rule publication
// times — the base generation a versioned ruleset registry layers deltas on.
func (s *Study) DatedRuleset() []rules.DatedRule { return s.rules }

// EngineConfig returns the ids.Config the study's engine was compiled with,
// so a registry rebuilding the engine per generation matches its semantics.
func (s *Study) EngineConfig() ids.Config {
	return ids.Config{PortInsensitive: !s.cfg.PortSensitive}
}

// ---- Tables ----

// Table1 returns the prior-work survey table.
func (r *Results) Table1() report.Table { return report.Table1() }

// Table2 returns the data-source table.
func (r *Results) Table2() report.Table { return report.Table2() }

// Table3 renders both desiderata matrices.
func (r *Results) Table3() string { return report.Table3() }

// Table4 evaluates the per-CVE desiderata.
func (r *Results) Table4() report.Table {
	return report.DesiderataTable("Table 4: Desiderata satisfaction per CVE",
		r.Table4Results())
}

// Table4Results returns the raw Table 4 rows.
func (r *Results) Table4Results() []core.DesideratumResult {
	return core.EvaluateDesiderata(r.Timelines, r.baselines)
}

// Table5 evaluates the per-event desiderata.
func (r *Results) Table5() report.Table {
	return report.DesiderataTable("Table 5: Desiderata satisfaction per exploit event",
		r.Table5Results())
}

// Table5Results returns the raw Table 5 rows.
func (r *Results) Table5Results() []core.DesideratumResult {
	return core.EvaluatePerEvent(r.events(), r.Timelines, r.baselines)
}

// Table6 renders the Log4Shell variant table.
func (r *Results) Table6() report.Table { return report.Table6() }

// AppendixE renders the studied-CVE listing.
func (r *Results) AppendixE() report.Table { return report.AppendixETable() }

// ---- Figures ----

// Figure1 bins observed CVEs by publication date (quarterly).
func (r *Results) Figure1() *stats.Histogram {
	h, _ := stats.NewHistogram(0, 91, 9)
	for _, c := range datasets.StudyCVEs() {
		h.Add(c.Published.Sub(datasets.StudyWindow.Start).Hours() / 24)
	}
	return h
}

// Figure2 returns the impact CDFs: studied vs KEV vs all CVEs.
func (r *Results) Figure2() []report.Series {
	pop := datasets.GeneratePopulation(datasets.PopulationConfig{Seed: r.cfg.Seed})
	return []report.Series{
		report.FromECDF("studied", "CVSS", stats.MustECDF(datasets.StudyImpactSamples())),
		report.FromECDF("kev", "CVSS", stats.MustECDF(r.KEV.ImpactSamples())),
		report.FromECDF("all", "CVSS", stats.MustECDF(datasets.ImpactSamples(pop))),
	}
}

// Figure3 is the absolute exploit-event timeline (30-day bins).
func (r *Results) Figure3() *stats.Histogram {
	return core.EventTimeline(r.events(), 30, datasets.StudyWindow.Start, datasets.StudyWindow.End)
}

// Figure4 is the publication-relative event timeline (15-day bins).
func (r *Results) Figure4() *stats.Histogram {
	return core.RelativeEventTimeline(r.events(), r.Timelines, 15, -450, 450)
}

// Figure5 returns the three headline window CDFs (A−D, P−D, A−P).
func (r *Results) Figure5() []core.WindowCDF {
	all := core.PaperWindowCDFs(r.Timelines)
	return all[:3]
}

// Figures13to18 returns the appendix window CDFs.
func (r *Results) Figures13to18() []core.WindowCDF {
	all := core.PaperWindowCDFs(r.Timelines)
	return all[3:]
}

// Figure6 is the mitigated/unmitigated CVE-per-bin histogram.
func (r *Results) Figure6() core.ExposureBins {
	return core.ExposureByBin(r.events(), r.Timelines, 5, -50, 200)
}

// Figure7 is the mitigated/unmitigated cumulative exposure CDF.
func (r *Results) Figure7() core.ExposureCDFs {
	return core.ExposureCDF(r.events(), r.Timelines)
}

// Figure8 is the Log4Shell session CDF.
func (r *Results) Figure8() core.SessionCDF {
	return core.CaseStudyCDF(r.events(), "2021-44228", datasets.Log4ShellPublished)
}

// Figure9 is the Log4Shell variant-group series over the first month.
func (r *Results) Figure9() []core.VariantSeries {
	return core.Log4ShellVariantSeries(r.events(), 21)
}

// Figure10 is the KEV A−P CDF.
func (r *Results) Figure10() report.Series {
	cmp := r.KEVComparison()
	return report.FromECDF("kev A-P", "days", cmp.KevAMinusP)
}

// Figure11 is the DSCOPE-vs-KEV first-exploitation delta CDF.
func (r *Results) Figure11() report.Series {
	cmp := r.KEVComparison()
	return report.FromECDF("KEV added - first DSCOPE attack", "days", cmp.Delta)
}

// Figure12 is the Confluence session CDF.
func (r *Results) Figure12() core.SessionCDF {
	meta := datasets.StudyCVEByID("2022-26134")
	return core.CaseStudyCDF(r.events(), "2022-26134", meta.Published)
}

// ---- Findings ----

// Finding7 runs the IDS-vendor-inclusion counterfactual for D < A.
func (r *Results) Finding7() core.CounterfactualReport {
	return core.EvaluateCounterfactual(r.Timelines,
		core.Pair{A: lifecycle.FixDeployed, B: lifecycle.Attacks},
		30*24*time.Hour, r.baselines)
}

// KEVComparison joins timelines against the KEV catalog (Findings 15–17).
func (r *Results) KEVComparison() core.KEVComparison {
	return core.CompareKEV(r.Timelines, r.KEV)
}

// MitigatedShare is the Section 6 headline exposure number.
func (r *Results) MitigatedShare() float64 {
	return core.MitigatedShare(r.events(), r.Timelines)
}

// MeanSkill is Finding 3's headline.
func (r *Results) MeanSkill() float64 {
	return core.MeanSkill(r.Table4Results())
}
