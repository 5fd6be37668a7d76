package registry

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/rules"
)

func fuzzRecordsSeeds(tb testing.TB) [][]byte {
	s := testSession(3, "GET /SDK/webLanguage HTTP/1.1\r\n\r\n")
	s.ServerData = []byte("HTTP/1.1 200 OK\r\n\r\n")
	s.Ambiguous = true
	matched := DigestOf(&s, &ids.Event{SID: 7, CVE: "2021-36260", Published: earlyPub}, 0)
	v6 := testSession(4, "")
	v6.Client = packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::2"), Port: 9}
	unmatched := DigestOf(&v6, nil, 0)
	var delta bytes.Buffer
	if err := rules.WriteDatedRuleset(&delta, baseRuleset(tb)); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		appendDigest(nil, &matched),
		appendDigest(nil, &unmatched),
		append(binary.LittleEndian.AppendUint64(nil, 3), delta.Bytes()...),
	}
	for _, s := range seeds {
		seeds = append(seeds, s[:len(s)-1])
	}
	return append(seeds, []byte{})
}

// TestRegenFuzzRecordsCorpus rewrites FuzzRecords' committed seed corpus.
// Run with REGEN_FUZZ_CORPUS=1 after changing the seeds.
func TestRegenFuzzRecordsCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzRecords", fuzzRecordsSeeds(t))
}

// FuzzRecords runs both registry record decoders over the input: digests and
// ruleset journal entries. Neither may panic. An accepted digest must come
// back unchanged from appendDigest and decodeDigest. A journal entry's delta
// is ruleset text whose publication times print at second precision, so an
// accepted entry must come back with the same generation and rule text.
func FuzzRecords(f *testing.F) {
	for _, seed := range fuzzRecordsSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeDigest(data); err == nil {
			back, err := decodeDigest(appendDigest(nil, &d))
			if err != nil {
				t.Fatalf("re-encoded digest rejected: %v", err)
			}
			if !reflect.DeepEqual(back, d) {
				t.Fatalf("digest round trip changed the record:\n got %+v\nwant %+v", back, d)
			}
		}
		if e, err := decodeEntry(data); err == nil {
			var text bytes.Buffer
			if err := rules.WriteDatedRuleset(&text, e.delta); err != nil {
				t.Fatal(err)
			}
			back, err := decodeEntry(append(binary.LittleEndian.AppendUint64(nil, e.gen), text.Bytes()...))
			if err != nil {
				t.Fatalf("re-encoded journal entry rejected: %v", err)
			}
			if back.gen != e.gen || ruleText(back.delta) != ruleText(e.delta) {
				t.Fatalf("journal entry round trip changed gen %d -> %d or its rules", e.gen, back.gen)
			}
		}
	})
}

func ruleText(delta []rules.DatedRule) string {
	var b strings.Builder
	for _, dr := range delta {
		b.WriteString(dr.Rule.Raw)
		b.WriteByte('\n')
	}
	return b.String()
}
