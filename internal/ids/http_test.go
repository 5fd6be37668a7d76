package ids

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractBuffersSimpleGET(t *testing.T) {
	raw := "GET /login?user=${jndi:ldap://x/a} HTTP/1.1\r\nHost: victim\r\nCookie: sid=abc\r\nUser-Agent: scanner\r\n\r\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	r := b.Requests[0]
	if string(r.Method) != "GET" {
		t.Errorf("method = %q", r.Method)
	}
	if string(r.URI) != "/login?user=${jndi:ldap://x/a}" {
		t.Errorf("uri = %q", r.URI)
	}
	if !strings.Contains(string(r.Headers), "User-Agent: scanner") {
		t.Errorf("headers = %q", r.Headers)
	}
	if string(r.Cookie) != "sid=abc" {
		t.Errorf("cookie = %q", r.Cookie)
	}
	if len(r.Body) != 0 {
		t.Errorf("body = %q", r.Body)
	}
}

func TestExtractBuffersPOSTBody(t *testing.T) {
	raw := "POST /api HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\nhello world"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if got := string(b.Requests[0].Body); got != "hello world" {
		t.Errorf("body = %q", got)
	}
}

func TestExtractBuffersPipelined(t *testing.T) {
	raw := "GET /a HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n" +
		"GET /b HTTP/1.1\r\nHost: h\r\n\r\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(b.Requests))
	}
	if string(b.Requests[0].URI) != "/a" || string(b.Requests[1].URI) != "/b" {
		t.Errorf("uris = %q, %q", b.Requests[0].URI, b.Requests[1].URI)
	}
}

func TestExtractBuffersNonHTTP(t *testing.T) {
	b := ExtractBuffers([]byte("\x16\x03\x01\x02\x00binary tls hello"))
	if len(b.Requests) != 0 {
		t.Errorf("requests = %d for binary stream", len(b.Requests))
	}
	if len(b.Raw) == 0 {
		t.Error("raw buffer empty")
	}
}

func TestExtractBuffersBareLF(t *testing.T) {
	raw := "GET /lf HTTP/1.0\nHost: h\n\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 || string(b.Requests[0].URI) != "/lf" {
		t.Fatalf("bare-LF request not parsed: %+v", b.Requests)
	}
}

func TestExtractBuffersBogusMethodWithVersion(t *testing.T) {
	// Log4Shell group E matched the HTTP request method buffer of requests
	// with attacker-controlled methods.
	raw := "${jndi:ldap://x/a} / HTTP/1.1\r\nHost: h\r\n\r\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if string(b.Requests[0].Method) != "${jndi:ldap://x/a}" {
		t.Errorf("method = %q", b.Requests[0].Method)
	}
}

func TestExtractBuffersPartialHeaders(t *testing.T) {
	raw := "GET /partial HTTP/1.1\r\nHost: trunc"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if !strings.Contains(string(b.Requests[0].Headers), "Host: trunc") {
		t.Errorf("headers = %q", b.Requests[0].Headers)
	}
}

func TestHeaderValueCaseInsensitive(t *testing.T) {
	h := "X-One: 1\r\ncOOkie:  c=2  \r\n"
	if got := string(headerValue([]byte(h), hdrCookie)); got != "c=2" {
		t.Errorf("headerValue = %q", got)
	}
	if got := headerValue([]byte(h), []byte("missing")); len(got) != 0 {
		t.Errorf("missing header = %q", got)
	}
}

func TestContentLengthAbuse(t *testing.T) {
	// A Content-Length larger than the captured body must not panic or
	// produce a remainder.
	raw := "POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\nshort"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if string(b.Requests[0].Body) != "short" {
		t.Errorf("body = %q", b.Requests[0].Body)
	}
}

func TestContentLengthNonNumeric(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\npayload"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 || string(b.Requests[0].Body) != "payload" {
		t.Fatalf("unexpected parse: %+v", b.Requests)
	}
}

// Property: extraction never panics and always preserves the raw stream.
func TestExtractBuffersNoPanicProperty(t *testing.T) {
	f := func(data []byte) bool {
		b := ExtractBuffers(data)
		return len(b.Raw) == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChunkedBodyDechunked(t *testing.T) {
	// The exploit token is split across two chunks: framing must not hide
	// it from the body buffer.
	raw := "POST /api HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"7\r\nx=${jnd\r\n11\r\ni:ldap://e/a}&y=1\r\n0\r\n\r\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if got := string(b.Requests[0].Body); got != "x=${jndi:ldap://e/a}&y=1" {
		t.Errorf("dechunked body = %q", got)
	}
}

func TestChunkedPipelined(t *testing.T) {
	raw := "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3\r\nabc\r\n0\r\n\r\n" +
		"GET /b HTTP/1.1\r\nHost: h\r\n\r\n"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(b.Requests))
	}
	if string(b.Requests[0].Body) != "abc" || string(b.Requests[1].URI) != "/b" {
		t.Errorf("parsed = %+v", b.Requests)
	}
}

func TestChunkedMalformedFallsBack(t *testing.T) {
	raw := "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nnot-hex\r\nbody"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 {
		t.Fatalf("requests = %d", len(b.Requests))
	}
	if len(b.Requests[0].Body) == 0 {
		t.Error("malformed chunking dropped the raw body")
	}
}

func TestChunkedTruncatedCapture(t *testing.T) {
	raw := "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nonly-part"
	b := ExtractBuffers([]byte(raw))
	if len(b.Requests) != 1 || string(b.Requests[0].Body) != "only-part" {
		t.Fatalf("truncated chunk parse = %+v", b.Requests)
	}
}
