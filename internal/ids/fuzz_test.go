package ids

import (
	"bytes"
	"testing"
)

// FuzzExtractBuffers holds the zero-copy parse to the reference string
// parser (http_oracle_test.go) field for field, normalized URI included, and
// checks that parsing into a len(data) arena never grows it. The committed
// corpus under testdata/fuzz pins the places where byte and string semantics
// could drift: Unicode spaces around header names and values, a Kelvin sign
// in "Cookie", multi-byte runes in a chunk-size line, a '%' within the last
// two bytes of a URI, a "/./" that appears only after percent-decoding, and
// a header block ending in '\n'.
func FuzzExtractBuffers(f *testing.F) {
	f.Add([]byte("GET /?x=${jndi:ldap://e} HTTP/1.1\r\nHost: h\r\nCookie: a=b\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("\x16\x03\x01 binary"))
	f.Add([]byte("EHLO x\r\nMAIL FROM:<a@b>\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := ExtractBuffers(data)
		if len(b.Raw) != len(data) {
			t.Fatalf("raw buffer lost bytes: %d vs %d", len(b.Raw), len(data))
		}
		want := refExtractBuffers(data)
		if len(b.Requests) != len(want) {
			t.Fatalf("parsed %d requests, reference %d", len(b.Requests), len(want))
		}
		for i := range b.Requests {
			r := &b.Requests[i]
			got := refRequest{string(r.Method), string(r.URI), string(r.Headers), string(r.Cookie), string(r.Body)}
			if got != want[i] {
				t.Fatalf("request %d:\n got %q\nwant %q", i, got, want[i])
			}
			wantNorm := refNormalizeURI(want[i].URI)
			if (r.norm != nil) != (wantNorm != want[i].URI) {
				t.Fatalf("request %d: norm %q for target %q, reference normalizes to %q", i, r.norm, r.URI, wantNorm)
			}
			if r.norm != nil && string(r.norm) != wantNorm {
				t.Fatalf("request %d: normalized %q, reference %q", i, r.norm, wantNorm)
			}
			// No Cookie header line may remain in the header buffer.
			if len(r.Cookie) > 0 {
				for _, line := range bytes.Split(r.Headers, []byte("\n")) {
					if _, ok := headerLine(line, hdrCookie); ok {
						t.Fatalf("cookie header left in header buffer: %q", r.Headers)
					}
				}
			}
		}
		// The pooled path parses into a reused arena of len(data), which
		// must never grow and must yield the same views.
		var pb Buffers
		arena := make([]byte, 0, len(data))
		if out := pb.parse(data, arena); cap(out) != cap(arena) {
			t.Fatalf("arena grew from %d to %d bytes", cap(arena), cap(out))
		}
		for i := range pb.Requests {
			p, r := &pb.Requests[i], &b.Requests[i]
			if !bytes.Equal(p.Headers, r.Headers) || !bytes.Equal(p.Body, r.Body) || !bytes.Equal(p.norm, r.norm) {
				t.Fatalf("request %d: arena parse differs from fresh parse", i)
			}
		}
	})
}
