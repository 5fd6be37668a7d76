package datasets

import (
	"math/rand"
	"sort"
	"time"
)

// CVERecord is one entry of the NVD-style catalog: identifier, publication
// date, and CVSS base score. The study uses the full 2021–2023 population
// only for the Figure 2 impact-distribution comparison.
type CVERecord struct {
	ID        string    `json:"id"`
	Published time.Time `json:"published"`
	CVSS      float64   `json:"cvss"`
}

// PopulationConfig tunes the synthetic all-CVE population generator.
type PopulationConfig struct {
	// Seed drives the deterministic generator.
	Seed int64
	// N is the number of CVEs (NVD published roughly 25 k/year in the
	// study window; the default 50000 covers two years).
	N int
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.N == 0 {
		c.N = 50000
	}
	return c
}

// cvssBuckets approximates NVD's empirical CVSS v3 base-score distribution
// for 2021–2023: scores cluster at the rubric's characteristic values, with
// MEDIUM and HIGH dominating and a visible CRITICAL mode at 9.8.
var cvssBuckets = []struct {
	score  float64
	weight float64
}{
	{3.5, 0.02}, {4.3, 0.05}, {4.8, 0.04}, {5.3, 0.07}, {5.4, 0.08},
	{6.1, 0.10}, {6.5, 0.09}, {7.2, 0.06}, {7.5, 0.12}, {7.8, 0.11},
	{8.1, 0.05}, {8.8, 0.10}, {9.1, 0.03}, {9.6, 0.02}, {9.8, 0.05}, {10.0, 0.01},
}

// GeneratePopulation produces a deterministic synthetic all-CVE catalog over
// the study window. Scores are drawn from the bucket distribution with a
// small jitter so the CDF is smooth like NVD's.
func GeneratePopulation(cfg PopulationConfig) []CVERecord {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var totalW float64
	for _, b := range cvssBuckets {
		totalW += b.weight
	}
	window := StudyWindow.End.Sub(StudyWindow.Start)
	out := make([]CVERecord, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		r := rng.Float64() * totalW
		score := cvssBuckets[len(cvssBuckets)-1].score
		for _, b := range cvssBuckets {
			if r < b.weight {
				score = b.score
				break
			}
			r -= b.weight
		}
		score += (rng.Float64() - 0.5) * 0.2
		if score > 10 {
			score = 10
		}
		if score < 0 {
			score = 0
		}
		pub := StudyWindow.Start.Add(time.Duration(rng.Int63n(int64(window))))
		out = append(out, CVERecord{
			ID:        syntheticCVEID(pub, i),
			Published: pub,
			CVSS:      score,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Published.Before(out[j].Published) })
	return out
}

// syntheticCVEID fabricates a plausible identifier in the synthetic number
// space (serials start at 90000 to avoid colliding with real CVE ids).
func syntheticCVEID(pub time.Time, serial int) string {
	return pub.Format("2006") + "-" + itoa5(90000+serial)
}

func itoa5(n int) string {
	digits := []byte{'0', '0', '0', '0', '0', '0'}
	i := len(digits)
	for n > 0 && i > 0 {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return string(digits[i:])
}

// ImpactSamples extracts the CVSS scores of a catalog as a float slice for
// ECDF construction (Figure 2).
func ImpactSamples(recs []CVERecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.CVSS
	}
	return out
}

// StudyImpactSamples returns the CVSS scores of the 63 studied CVEs.
func StudyImpactSamples() []float64 {
	cves := studyTable().rows
	out := make([]float64, len(cves))
	for i, c := range cves {
		out[i] = c.Impact
	}
	return out
}
