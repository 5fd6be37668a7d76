package scanner

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/datasets"
)

// Blueprint is one planned scanning session: who sends what, when, at which
// service port. The telescope turns blueprints into captured TCP sessions.
type Blueprint struct {
	// Time the session starts.
	Time time.Time
	// Src is the scanner's address.
	Src netip.Addr
	// DstPort is the targeted service port. The paper's scanners often
	// spray non-standard ports, motivating port-insensitive rules.
	DstPort uint16
	// Payload is the client's application-layer bytes.
	Payload []byte
	// CVE is the intended target ("" for background noise). Ground truth
	// for validating IDS attribution; the pipeline itself never reads it.
	CVE string
	// SID is the signature expected to match (0 for noise).
	SID int
	// Legacy marks traffic targeting longstanding (pre-study) CVEs: the
	// bulk of what real telescopes see. The study's filtered ruleset
	// deliberately does not attribute it.
	Legacy bool
}

// Config tunes workload generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale divides each CVE's event count (minimum one event per CVE, one
	// per Log4Shell variant). Scale 1 reproduces the full ~115 k-event
	// appendix volume; tests use larger scales. Zero means 100.
	Scale int
	// Noise is the number of background-radiation sessions (credential
	// stuffing, crawlers, TLS probes) that must match no rule. Zero means
	// one tenth of the exploit volume.
	Noise int
	// LegacyScans is the number of sessions exploiting longstanding
	// pre-study CVEs (Shellshock, Struts, GPON, ...). Real telescopes see
	// mostly this; the study's signature filter excludes it. Zero disables.
	LegacyScans int
	// BurstWeight forwards to netsim.CampaignTimes. Zero keeps its default.
	BurstWeight float64
	// End overrides the end of the generation window. Zero means the study
	// window's end.
	End time.Time
	// Boost multiplies every per-CVE event count after the Scale division.
	// Zero or one means off. Stress benchmarks use it to push volume past
	// paper scale (Boost 10 at Scale 1 ≈ 10x the 115 k-event corpus)
	// without disturbing Scale's minimum-one-event-per-CVE semantics.
	Boost int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 100
	}
	if c.End.IsZero() {
		c.End = datasets.StudyWindow.End
	}
	return c
}

// scannerPool is the address space exploit scanners come from: a mix of
// hosting providers and residential-looking space.
var scannerPoolPrefixes = []string{
	"185.220.100.0/22", "45.155.204.0/22", "194.31.98.0/23",
	"91.241.19.0/24", "103.77.192.0/22", "5.188.206.0/23",
}

// defaultLog4ShellEvents is Log4Shell's Appendix E event count, apportioned
// across variants by weight.
const defaultLog4ShellEvents = 6254

const (
	// offPortFraction is the share of exploit sessions aimed at a port
	// other than the exploit's nominal one.
	offPortFraction = 0.2
	// scannerSources is the exploit-scanner population size (the paper saw
	// 3.6 k distinct sources).
	scannerSources = 360
)

// Build generates the full workload: every study CVE's campaign (Log4Shell
// split across its Table 6 variants), plus background noise, sorted by time.
// It is a thin wrapper that collects NewStream, so the materialized and
// streaming generation paths share one generator and emit byte-identical
// blueprint sequences.
func Build(cfg Config) ([]Blueprint, error) {
	st, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Blueprint, 0, st.Total())
	for {
		bp, ok := st.Next()
		if !ok {
			return out, nil
		}
		out = append(out, bp)
	}
}

// firstAttack derives a CVE's first-event time. CVEs with an unmeasured A−P
// (printed "-") still produced traffic in the paper; a 30-day default keeps
// them in the stream without affecting per-CVE A analyses (which read the
// appendix directly).
func firstAttack(c datasets.StudyCVE) time.Time {
	if c.AMinusP.Known {
		return c.Published.Add(c.AMinusP.D)
	}
	return c.Published.Add(30 * 24 * time.Hour)
}

func clampToWindow(t time.Time) time.Time {
	if t.Before(datasets.StudyWindow.Start) {
		return datasets.StudyWindow.Start
	}
	if t.After(datasets.StudyWindow.End) {
		return datasets.StudyWindow.End
	}
	return t
}

func scaledCount(events, scale int) int {
	n := events / scale
	if n < 1 {
		n = 1
	}
	return n
}

// choosePort returns the nominal port or, with the configured probability, a
// scanner-sprayed alternative.
func choosePort(rng *rand.Rand, nominal uint16, offFraction float64) uint16 {
	if rng.Float64() >= offFraction {
		return nominal
	}
	alts := []uint16{80, 81, 443, 8000, 8080, 8081, 8088, 8443, 8888, 9000, 9090}
	p := alts[rng.Intn(len(alts))]
	if p == nominal {
		p++
	}
	return p
}

func noisePort(rng *rand.Rand) uint16 {
	ports := []uint16{22, 23, 80, 443, 445, 3389, 5900, 8080}
	return ports[rng.Intn(len(ports))]
}

// noisePayload produces traffic shaped like the bulk of what the telescope
// sees: credential stuffing, generic crawling, and protocol probes that
// match no CVE signature.
func noisePayload(rng *rand.Rand) []byte {
	switch rng.Intn(5) {
	case 0: // credential stuffing
		user := pick(rng, []string{"admin", "root", "user", "test"})
		pass := pick(rng, []string{"admin", "123456", "password", "letmein"})
		return httpPost("/login", "username="+user+"&password="+pass)
	case 1: // benign-looking crawl
		return httpGet(pick(rng, []string{"/", "/robots.txt", "/favicon.ico", "/index.html"}))
	case 2: // TLS ClientHello-ish binary
		return []byte{0x16, 0x03, 0x01, 0x00, 0x8d, 0x01, 0x00, 0x00, 0x89, 0x03, 0x03, byte(rng.Intn(256)), byte(rng.Intn(256))}
	case 3: // SSH banner
		return []byte("SSH-2.0-Go\r\n")
	default: // telnet-style login probe
		return []byte("root\r\n12345\r\n")
	}
}
