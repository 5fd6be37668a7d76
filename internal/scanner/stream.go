package scanner

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/datasets"
	"repro/internal/netsim"
)

// Stream generates the workload lazily, in ascending time order, with
// memory proportional to the number of temporal processes (one per study
// CVE, one per Log4Shell variant, one each for legacy scanning and
// background noise — ~80 in total) instead of the event count. Build is a
// thin wrapper that collects a Stream, so the materialized and streaming
// paths consume byte-identical blueprint sequences.
//
// Each process owns a private rng derived from (Config.Seed, process index)
// and emits its events in ascending order through netsim's order-statistics
// samplers; a k-way heap merge interleaves the processes deterministically,
// breaking time ties by process index.
type Stream struct {
	subs  subHeap
	total int
}

// subStream is one temporal process: the lookahead blueprint plus the
// closure that generates the next one.
type subStream struct {
	idx int
	cur Blueprint
	gen func() (Blueprint, bool)
}

type subHeap []*subStream

func (h subHeap) Len() int { return len(h) }
func (h subHeap) Less(i, j int) bool {
	if !h[i].cur.Time.Equal(h[j].cur.Time) {
		return h[i].cur.Time.Before(h[j].cur.Time)
	}
	return h[i].idx < h[j].idx
}
func (h subHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *subHeap) Push(x any)       { *h = append(*h, x.(*subStream)) }
func (h *subHeap) Pop() any         { old := *h; n := len(old); s := old[n-1]; *h = old[:n-1]; return s }
func (h *subHeap) add(s *subStream) { heap.Push(h, s) }
func (h *subHeap) fix()             { heap.Fix(h, 0) }
func (h *subHeap) drop() *subStream { return heap.Pop(h).(*subStream) }
func (h subHeap) peek() *subStream  { return h[0] }

// procSeed derives the dedicated rng seed for process idx via a
// splitmix64-style mix, so sibling processes are decorrelated even for
// adjacent study seeds.
func procSeed(seed int64, idx uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewStream builds the lazy workload generator. The configuration semantics
// match Build exactly — Build is collect(NewStream).
func NewStream(cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	boost := cfg.Boost
	if boost < 1 {
		boost = 1
	}
	pool := netsim.MustPool(cfg.Seed+1, scannerPoolPrefixes...)
	scanners := netsim.NewSources(cfg.Seed+2, pool, scannerSources)

	exploits := Exploits()
	exByCVE := make(map[string]*Exploit, len(exploits))
	for i := range exploits {
		exByCVE[exploits[i].CVE] = &exploits[i]
	}

	s := &Stream{}
	idx := 0
	addSub := func(gen func() (Blueprint, bool)) {
		sub := &subStream{idx: idx, gen: gen}
		idx++
		if bp, ok := gen(); ok {
			sub.cur = bp
			s.subs.add(sub)
		}
	}

	exploitTotal := 0
	for _, c := range datasets.StudyCVEs() {
		if c.ID == "2021-44228" {
			continue // Log4Shell handled per variant below
		}
		ex, ok := exByCVE[c.ID]
		if !ok {
			return nil, fmt.Errorf("scanner: no exploit definition for CVE-%s", c.ID)
		}
		n := scaledCount(c.Events, cfg.Scale) * boost
		exploitTotal += n
		first := clampToWindow(firstAttack(c))
		burst := first
		if c.Published.After(burst) {
			// Pre-publication observations are sporadic; the campaign's
			// burst follows the public announcement (Figure 5c).
			burst = c.Published
		}
		// Announcement-driven bursts fade with how late exploitation began
		// (see Build's rationale; the decay is identical here).
		bw := cfg.BurstWeight
		if bw == 0 {
			bw = 0.45
		}
		if lag := first.Sub(c.Published); lag > 0 {
			bw *= math.Exp(-lag.Hours() / 24 / 7)
		}
		rng := rand.New(rand.NewSource(procSeed(cfg.Seed, uint64(idx))))
		times := netsim.CampaignTimes{
			First:       first,
			BurstStart:  burst,
			End:         cfg.End,
			BurstWeight: bw,
			TailPower:   2, // rising legacy-scanning rate (Figure 3)
		}.Stream(rng, n)
		cve, sid := c.ID, ex.SID
		addSub(func() (Blueprint, bool) {
			t, ok := times.Next()
			if !ok {
				return Blueprint{}, false
			}
			return Blueprint{
				Time:    t,
				Src:     scanners.PickWith(rng),
				DstPort: choosePort(rng, ex.Port, offPortFraction),
				Payload: ex.Craft(rng),
				CVE:     cve,
				SID:     sid,
			}, true
		})
	}

	// Log4Shell variants.
	groups := map[string]datasets.Log4ShellGroup{}
	sidMeta := map[int]datasets.Log4ShellSID{}
	for _, g := range datasets.Log4ShellGroups() {
		groups[g.Name] = g
		for _, sm := range g.SIDs {
			sidMeta[sm.SID] = sm
		}
	}
	for _, v := range log4ShellVariants() {
		meta, ok := sidMeta[v.SID]
		if !ok {
			return nil, fmt.Errorf("scanner: Log4Shell sid %d missing from Table 6 data", v.SID)
		}
		n := scaledCount(int(float64(defaultLog4ShellEvents)*v.Weight), cfg.Scale) * boost
		exploitTotal += n
		first := groups[v.Group].Deployed().Add(meta.AMinusD.D)
		rng := rand.New(rand.NewSource(procSeed(cfg.Seed, uint64(idx))))
		times := netsim.CampaignTimes{
			First:       clampToWindow(first),
			End:         cfg.End,
			BurstWeight: 0.6, // Log4Shell was front-loaded (Figure 8)
			BurstMean:   20 * 24 * time.Hour,
		}.Stream(rng, n)
		variant := v
		addSub(func() (Blueprint, bool) {
			t, ok := times.Next()
			if !ok {
				return Blueprint{}, false
			}
			var port uint16
			if variant.Context == datasets.CtxSMTP {
				port = 25
			} else {
				port = choosePort(rng, 8080, offPortFraction)
			}
			return Blueprint{
				Time:    t,
				Src:     scanners.PickWith(rng),
				DstPort: port,
				Payload: craftLog4Shell(variant, rng),
				CVE:     "2021-44228",
				SID:     variant.SID,
			}, true
		})
	}

	// Legacy scanning: longstanding-CVE exploitation from the broad botnet
	// population, spread uniformly over the whole window.
	if cfg.LegacyScans > 0 {
		legacyPool := netsim.MustPool(cfg.Seed+5, "45.95.168.0/21", "92.255.85.0/24", "196.251.80.0/20")
		legacySources := netsim.NewSources(cfg.Seed+6, legacyPool, 1500)
		rng := rand.New(rand.NewSource(procSeed(cfg.Seed, uint64(idx))))
		times := netsim.NewUniformTimes(rng, datasets.StudyWindow.Start, cfg.End, cfg.LegacyScans)
		addSub(func() (Blueprint, bool) {
			t, ok := times.Next()
			if !ok {
				return Blueprint{}, false
			}
			src := legacySources.PickWith(rng)
			payload, port, cve, sid := craftLegacy(rng)
			return Blueprint{
				Time:    t,
				Src:     src,
				DstPort: choosePort(rng, port, offPortFraction),
				Payload: payload,
				CVE:     cve,
				SID:     sid,
				Legacy:  true,
			}, true
		})
	}

	// Background radiation: high-volume, rule-free traffic from a much
	// larger source population.
	noiseCount := cfg.Noise
	if noiseCount == 0 {
		noiseCount = (exploitTotal + cfg.LegacyScans) / 10
	}
	if noiseCount > 0 {
		noisePool := netsim.MustPool(cfg.Seed+3, "23.128.0.0/16", "162.142.0.0/16", "167.94.0.0/16")
		noiseSources := netsim.NewSources(cfg.Seed+4, noisePool, 2000)
		rng := rand.New(rand.NewSource(procSeed(cfg.Seed, uint64(idx))))
		times := netsim.NewUniformTimes(rng, datasets.StudyWindow.Start, cfg.End, noiseCount)
		addSub(func() (Blueprint, bool) {
			t, ok := times.Next()
			if !ok {
				return Blueprint{}, false
			}
			return Blueprint{
				Time:    t,
				Src:     noiseSources.PickWith(rng),
				DstPort: noisePort(rng),
				Payload: noisePayload(rng),
			}, true
		})
	}

	s.total = exploitTotal + cfg.LegacyScans + noiseCount
	return s, nil
}

// Total is the exact number of blueprints the stream will emit — known up
// front because per-campaign counts derive from the appendix volumes, not
// from sampling.
func (s *Stream) Total() int { return s.total }

// Next returns the next blueprint in ascending time order, or false when
// the workload is exhausted.
func (s *Stream) Next() (Blueprint, bool) {
	if s.subs.Len() == 0 {
		return Blueprint{}, false
	}
	sub := s.subs.peek()
	out := sub.cur
	if bp, ok := sub.gen(); ok {
		sub.cur = bp
		s.subs.fix()
	} else {
		s.subs.drop()
	}
	return out, true
}
