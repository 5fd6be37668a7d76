package netsim

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"
)

// SignatureCorpusConfig shapes a synthetic Talos-scale ruleset. The study's
// real feed is >48k signatures whose fast patterns share heavy common
// prefixes (URI stems, shellcode sleds, protocol verbs); the generator
// reproduces that shape so automaton builds and scans are stressed the way
// the real corpus stresses them, while staying fully seeded.
type SignatureCorpusConfig struct {
	// Seed drives every random choice; equal configs write equal bytes.
	Seed int64
	// N is the number of rules. Zero means 48000.
	N int
	// Start and End bound the publication window. Zero means the study's
	// two-year collection window.
	Start, End time.Time
}

// baseSID is the corpus's first SID, clear of the study set.
const baseSID = 3000000

func (c SignatureCorpusConfig) withDefaults() SignatureCorpusConfig {
	if c.N == 0 {
		c.N = 48000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// uriStems and verbs seed the shared-prefix structure: thousands of rules
// hang off a few dozen stems, which is what makes a naive trie cache-hostile
// at this scale.
var uriStems = []string{
	"/cgi-bin/", "/admin/", "/api/v1/", "/api/v2/", "/wp-content/plugins/",
	"/wp-admin/", "/manager/html/", "/solr/", "/struts/", "/console/",
	"/owa/auth/", "/vpn/", "/remote/", "/boaform/", "/shell", "/setup.cgi",
	"/HNAP1/", "/tmUnblock.cgi", "/jenkins/", "/actuator/",
}

var payloadTokens = []string{
	"cmd=", "exec=", "wget+http", "chmod+777", "/bin/sh", "passwd",
	"SELECT+", "UNION+ALL", "eval(", "base64_decode", "powershell",
	"jndi:ldap", "xp_cmdshell", "etc/shadow", "nc+-e", "curl+-s",
}

// WriteSignatureCorpus writes cfg.N synthetic rules in the dated-ruleset
// format (a publication comment before each rule). Roughly 5% of the rules
// are marked never-during-study, a few percent are deliberate duplicate SIDs
// at a higher rev (exercising feed dedup), and every rule carries a content
// usable as a fast pattern.
func WriteSignatureCorpus(w io.Writer, cfg SignatureCorpusConfig) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	bw := &corpusWriter{w: w}
	span := cfg.End.Sub(cfg.Start)
	dupRev := make(map[int]int)
	for i := 0; i < cfg.N; i++ {
		sid := baseSID + i
		rev := 1 + rng.Intn(3)
		if rng.Intn(40) == 0 && i > 0 {
			// Duplicate SID at a higher rev: feeds carry these, and the
			// registry's dedup must resolve them order-independently. Each
			// re-release of a SID bumps rev past any prior release so the
			// corpus never manufactures a same-rev conflict.
			sid = baseSID + rng.Intn(i)
			rev = 4 + 3*dupRev[sid]
			dupRev[sid]++
		}
		pub := "never-during-study"
		if rng.Intn(20) != 0 {
			pub = cfg.Start.Add(time.Duration(rng.Int63n(int64(span)))).Format(time.RFC3339)
		}
		bw.printf("# published: %s\n", pub)
		bw.printf("alert tcp $EXTERNAL_NET any -> $HOME_NET %s (msg:\"SYNTH exploit attempt %d\"; %ssid:%d; rev:%d;)\n",
			synthPorts(rng), sid, synthBody(rng, sid), sid, rev)
		if bw.err != nil {
			return bw.err
		}
	}
	return bw.err
}

// SignatureCorpus renders the corpus to memory; ~6 MB at the default 48k.
func SignatureCorpus(cfg SignatureCorpusConfig) []byte {
	var sb strings.Builder
	if err := WriteSignatureCorpus(&sb, cfg); err != nil {
		// strings.Builder never errors; corpus generation has no other
		// failure mode.
		panic(err)
	}
	return []byte(sb.String())
}

type corpusWriter struct {
	w   io.Writer
	err error
}

func (c *corpusWriter) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	_, c.err = fmt.Fprintf(c.w, format, args...)
}

func synthPorts(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "any"
	}
	return fmt.Sprint(1 + rng.Intn(65535))
}

// synthBody emits the detection options: one or two contents (the first is
// the fast pattern), drawn from shared stems plus a unique suffix so the
// automaton sees realistic prefix sharing without degenerate duplicates.
func synthBody(rng *rand.Rand, sid int) string {
	var b strings.Builder
	switch rng.Intn(5) {
	case 0, 1: // URI rule
		fmt.Fprintf(&b, "content:\"%s%s%x\"; http_uri; nocase; ",
			uriStems[rng.Intn(len(uriStems))], suffix(rng), sid&0xfff)
	case 2: // binary rule, pipe-hex pattern
		b.WriteString("content:\"|")
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", rng.Intn(256))
		}
		b.WriteString("|\"; ")
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "depth:%d; ", 16+rng.Intn(240))
		}
	default: // payload-token rule
		fmt.Fprintf(&b, "content:\"%s%s\"; ", payloadTokens[rng.Intn(len(payloadTokens))], suffix(rng))
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "content:\"%s\"; distance:0; within:%d; ",
				payloadTokens[rng.Intn(len(payloadTokens))], 64+rng.Intn(512))
		}
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "reference:cve,%d-%d; ", 2019+rng.Intn(5), 1000+rng.Intn(40000))
	}
	b.WriteString("flow:to_server; ")
	return b.String()
}

const suffixAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789_-."

func suffix(rng *rand.Rand) string {
	n := 3 + rng.Intn(10)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(suffixAlphabet[rng.Intn(len(suffixAlphabet))])
	}
	return b.String()
}
