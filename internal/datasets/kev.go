package datasets

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// KEVEntry is one Known Exploited Vulnerabilities catalog record.
type KEVEntry struct {
	// ID is the CVE identifier ("YYYY-NNNN").
	ID string `json:"id"`
	// Published is the CVE's NVD publication date.
	Published time.Time `json:"published"`
	// DateAdded is when CISA added the CVE to the KEV catalog, the paper's
	// proxy for known exploitation in the KEV comparison.
	DateAdded time.Time `json:"dateAdded"`
	// CVSS is the base score (used for Figure 2).
	CVSS float64 `json:"cvss"`
}

// KEVStart is when CISA began the KEV catalog (November 2021, partway
// through the study).
var KEVStart = mustDate("2021-11-03")

// KEVConfig tunes the synthetic KEV catalog generator.
type KEVConfig struct {
	// Seed drives the deterministic generator.
	Seed int64
	// N is the number of catalog CVEs published during the study window
	// (the paper filters KEV to 424 such CVEs).
	N int
}

const (
	// kevOverlap is how many of the 63 study CVEs also appear in KEV (the
	// paper observed 44, i.e. 70%).
	kevOverlap = 44
	// kevDscopeFirst is how many overlap CVEs the telescope observed before
	// their KEV addition (the paper observed 26 of 44, 59%).
	kevDscopeFirst = 26
)

func (c KEVConfig) withDefaults() KEVConfig {
	if c.N == 0 {
		c.N = 424
	}
	return c
}

// KEVCatalog is the generated catalog plus the join against study CVEs.
type KEVCatalog struct {
	Entries []KEVEntry
	// Overlap maps study CVE ids present in KEV to their entries.
	Overlap map[string]KEVEntry
}

// GenerateKEV produces a deterministic synthetic KEV catalog calibrated to
// the paper's reported aggregates:
//
//   - 424 entries with publication dates inside the study window and
//     addition dates after the catalog's November 2021 start;
//   - an A−P distribution with ≈18% of entries exploited (added) before
//     publication, with shorter pre-publication leads than the telescope
//     observes (Figure 10 / Finding 16);
//   - a CVSS skew toward high impact, but weaker than the studied CVEs'
//     skew (Figure 2 / Finding 15);
//   - 44 of the 63 study CVEs present, of which 26 were telescope-observed
//     before KEV addition and 50% of those more than 30 days before
//     (Figure 11 / Finding 17).
func GenerateKEV(cfg KEVConfig) KEVCatalog {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := KEVCatalog{Overlap: map[string]KEVEntry{}}

	// Overlapping study CVEs first: deterministically pick the study CVEs
	// most likely to be widely reported (highest event counts first breaks
	// toward the big campaigns the paper's case studies name), excluding
	// those published too late for KEV processing inside the window.
	study := StudyCVEs()
	sort.SliceStable(study, func(i, j int) bool { return study[i].Events > study[j].Events })
	overlap := study
	if len(overlap) > kevOverlap {
		overlap = overlap[:kevOverlap]
	}
	// Order the overlap by first observed attack: CVEs the telescope saw
	// earliest are the ones it naturally beats manual reporting on, and
	// their first attacks may predate the KEV catalog itself (before which
	// no addition date is possible).
	firstAttack := func(c *StudyCVE) time.Time {
		if c.AMinusP.Known {
			return c.Published.Add(c.AMinusP.D)
		}
		return c.Published
	}
	sort.SliceStable(overlap, func(i, j int) bool {
		return firstAttack(&overlap[i]).Before(firstAttack(&overlap[j]))
	})
	for i, c := range overlap {
		fa := firstAttack(&c)
		var added time.Time
		if i < kevDscopeFirst {
			// Telescope-first: KEV lags the first observed attack. Half of
			// these lag by more than 30 days (Finding 17's headline).
			var lag time.Duration
			if i%2 == 0 {
				lag = 31*24*time.Hour + time.Duration(rng.Int63n(int64(200*24*time.Hour)))
			} else {
				lag = time.Duration(rng.Int63n(int64(30 * 24 * time.Hour)))
			}
			added = fa.Add(lag)
			if added.Before(KEVStart) {
				added = KEVStart.Add(time.Duration(rng.Int63n(int64(14 * 24 * time.Hour))))
			}
		} else {
			// KEV-first: manual reporting beat the telescope's vantage.
			// These CVEs have late first attacks, so a lead of up to 60
			// days still lands after the catalog's start.
			lead := time.Duration(rng.Int63n(int64(60*24*time.Hour))) + 24*time.Hour
			added = fa.Add(-lead)
			if added.Before(KEVStart) {
				added = KEVStart
			}
		}
		e := KEVEntry{ID: c.ID, Published: c.Published, DateAdded: added, CVSS: c.Impact}
		cat.Entries = append(cat.Entries, e)
		cat.Overlap[c.ID] = e
	}

	// Fill the rest of the catalog with non-study CVEs. Pre-publication
	// additions are only possible for CVEs published comfortably after the
	// catalog's start, so the pre-publication probability is conditioned
	// on that subset to keep the catalog-wide rate at the paper's 18%.
	window := StudyWindow.End.Sub(StudyWindow.Start)
	lateCutoff := KEVStart.Add(90 * 24 * time.Hour)
	lateFrac := float64(StudyWindow.End.Sub(lateCutoff)) / float64(window)
	prePubCond := 0.18 / lateFrac
	for i := len(cat.Entries); i < cfg.N; i++ {
		pub := StudyWindow.Start.Add(time.Duration(rng.Int63n(int64(window))))
		var added time.Time
		if pub.After(lateCutoff) && rng.Float64() < prePubCond {
			// Exploited before publication; KEV leads are shorter than the
			// telescope's long pre-publication observations.
			lead := time.Duration(math.Abs(rng.NormFloat64()) * float64(40*24*time.Hour))
			if max := pub.Sub(KEVStart); lead >= max {
				lead = time.Duration(rng.Int63n(int64(max)))
			}
			added = pub.Add(-lead)
		} else {
			// Post-publication: exponential-ish lag with a long tail.
			lag := time.Duration(rng.ExpFloat64() * float64(45*24*time.Hour))
			added = pub.Add(lag)
		}
		if added.Before(KEVStart) {
			added = KEVStart.Add(time.Duration(rng.Int63n(int64(120 * 24 * time.Hour))))
		}
		cat.Entries = append(cat.Entries, KEVEntry{
			ID:        pub.Format("2006") + "-" + itoa5(80000+i),
			Published: pub,
			DateAdded: added,
			CVSS:      kevImpact(rng),
		})
	}
	sort.Slice(cat.Entries, func(i, j int) bool { return cat.Entries[i].Published.Before(cat.Entries[j].Published) })
	return cat
}

// kevImpact draws a CVSS score skewed high, but less extreme than the
// studied CVEs (whose median is 9.8).
func kevImpact(rng *rand.Rand) float64 {
	buckets := []struct {
		score  float64
		weight float64
	}{
		{5.4, 0.04}, {6.1, 0.05}, {6.5, 0.05}, {7.2, 0.08}, {7.5, 0.12},
		{7.8, 0.15}, {8.1, 0.08}, {8.8, 0.18}, {9.1, 0.05}, {9.8, 0.17}, {10.0, 0.03},
	}
	var total float64
	for _, b := range buckets {
		total += b.weight
	}
	r := rng.Float64() * total
	for _, b := range buckets {
		if r < b.weight {
			return b.score
		}
		r -= b.weight
	}
	return 9.8
}

// AMinusPSamples returns, in days, the KEV catalog's addition-minus-
// publication distribution (Figure 10).
func (c KEVCatalog) AMinusPSamples() []float64 {
	out := make([]float64, 0, len(c.Entries))
	for _, e := range c.Entries {
		out = append(out, e.DateAdded.Sub(e.Published).Hours()/24)
	}
	return out
}

// ImpactSamples returns the catalog's CVSS scores (Figure 2).
func (c KEVCatalog) ImpactSamples() []float64 {
	out := make([]float64, 0, len(c.Entries))
	for _, e := range c.Entries {
		out = append(out, e.CVSS)
	}
	return out
}
