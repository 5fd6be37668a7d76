// Package ids implements the study's network intrusion detection system: a
// Snort-style engine that evaluates parsed rules (package rules) over
// reassembled TCP sessions (package tcpasm), with an Aho–Corasick
// multi-pattern prefilter for throughput.
//
// Two methodological details from the paper are first-class here:
//
//   - Port-insensitive evaluation: published IDS rules are often constrained
//     to service ports, so exploit traffic aimed at non-standard ports would
//     go undetected; the engine can rewrite every rule to `any` ports.
//   - Post-facto dated evaluation: the entire capture is evaluated against
//     the full ruleset regardless of rule publication time, and for every
//     session only the EARLIEST-PUBLISHED matching signature is retained.
//     This lets the study observe exploitation that predates the rule (and
//     even the CVE's publication).
package ids

import (
	"bytes"
	"unicode/utf8"
)

// HTTPRequest is one parsed HTTP request extracted from a client stream,
// pre-sliced into the sticky buffers Snort rules address. Every field is a
// read-only view: into the client stream itself, or — for the few buffers
// that must be derived (cookie-stripped headers, a dechunked body) — into an
// arena owned by the parse. The views are valid as long as the client stream
// is.
type HTTPRequest struct {
	Method []byte
	// URI is the raw request target, undecoded (rules match raw bytes).
	URI []byte
	// Headers is the raw header block (everything between the request line
	// and the blank line), including header names.
	Headers []byte
	// Cookie is the value of the Cookie header, empty if absent.
	Cookie []byte
	// Body is the client body: sliced at Content-Length when present and
	// dechunked when Transfer-Encoding is chunked (framing must not hide
	// patterns from body-bound rules).
	Body []byte

	// norm is NormalizeURI(URI), derived once in the parse; nil when
	// normalization leaves the target unchanged.
	norm []byte
	// dechunked marks a Body decoded from chunked framing rather than sliced
	// from the stream, so it may hold text the stream does not.
	dechunked bool
}

// Buffers is the set of inspection buffers derived from one session
// direction. Raw always holds the full stream; HTTP buffers are populated
// when the stream parses as one or more HTTP requests.
type Buffers struct {
	Raw      []byte
	Requests []HTTPRequest
}

// maxRequests caps how many pipelined requests one stream is parsed into.
const maxRequests = 32

// ExtractBuffers parses the client stream into inspection buffers. Streams
// that do not look like HTTP still produce a usable Raw buffer; rules bound
// to HTTP sticky buffers simply find no candidate text. The derived views
// live in a fresh arena, allocated on first use.
func ExtractBuffers(clientData []byte) Buffers {
	var b Buffers
	b.parse(clientData, nil)
	return b
}

// parse fills b from data, reusing the capacity of b.Requests, and returns
// arena with the derived views appended. Each derived view is no longer than
// the stream region it comes from, and requests occupy disjoint regions, so
// an arena with capacity len(data) never grows.
func (b *Buffers) parse(data, arena []byte) []byte {
	b.Raw = data
	b.Requests = b.Requests[:0]
	rest := data
	for len(rest) > 0 && len(b.Requests) < maxRequests {
		req, remainder, grown, ok := parseHTTPRequest(rest, arena)
		if !ok {
			break
		}
		arena = grown
		b.Requests = append(b.Requests, req)
		if len(remainder) >= len(rest) {
			break
		}
		rest = remainder
	}
	return arena
}

// httpMethods are the request methods recognized when sniffing a stream for
// HTTP structure.
var httpMethods = []string{
	"GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH", "TRACE", "CONNECT", "PROPFIND", "SEARCH",
}

var (
	crlf        = []byte("\r\n")
	crlfCRLF    = []byte("\r\n\r\n")
	lfLF        = []byte("\n\n")
	httpVersion = []byte("HTTP/")

	hdrCookie           = []byte("cookie")
	hdrTransferEncoding = []byte("transfer-encoding")
	hdrContentLength    = []byte("content-length")
	chunked             = []byte("chunked")
)

// parseHTTPRequest attempts to parse one request from the head of data. It
// returns the request, the bytes after it, and arena with the request's
// derived views appended.
func parseHTTPRequest(data, arena []byte) (req HTTPRequest, remainder, grown []byte, ok bool) {
	lineEnd := bytes.Index(data, crlf)
	if lineEnd < 0 {
		// Tolerate bare-LF clients (common in crude scanners).
		lineEnd = bytes.IndexByte(data, '\n')
		if lineEnd < 0 {
			return req, nil, arena, false
		}
	}
	line := trimTrailingCR(data[:lineEnd])
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return req, nil, arena, false
	}
	method, target, version := line[:sp], line[sp+1:], []byte(nil)
	if sp = bytes.IndexByte(target, ' '); sp >= 0 {
		target, version = target[:sp], target[sp+1:]
	}
	// Non-standard methods are still HTTP-shaped if the line ends in a
	// version token; Log4Shell group E signatures match the method buffer
	// of bogus-method requests.
	if !knownMethod(method) && (!bytes.HasPrefix(version, httpVersion) || !isToken(method)) {
		return req, nil, arena, false
	}
	req.Method, req.URI = method, target
	mark := len(arena)
	if arena = appendNormalizedURI(arena, target); bytes.Equal(arena[mark:], target) {
		arena = arena[:mark]
	} else {
		req.norm = arena[mark:]
	}

	// Locate end of header block.
	afterLine := trimLeadingEOL(data[lineEnd:])
	hdrEnd, sepLen := bytes.Index(afterLine, crlfCRLF), 4
	if hdrEnd < 0 {
		hdrEnd, sepLen = bytes.Index(afterLine, lfLF), 2
	}
	var body []byte
	if hdrEnd < 0 {
		// Unterminated headers: everything remaining is header text (the
		// telescope may capture partial requests).
		req.Headers = afterLine
	} else {
		req.Headers = afterLine[:hdrEnd]
		body = afterLine[hdrEnd+sepLen:]
	}
	req.Cookie = headerValue(req.Headers, hdrCookie)
	if len(req.Cookie) > 0 {
		// Snort's http_header buffer excludes the Cookie header; cookies
		// are inspected through http_cookie only.
		mark = len(arena)
		arena = appendStrippedHeader(arena, req.Headers, hdrCookie)
		req.Headers = arena[mark:]
	}

	// Chunked bodies are dechunked before inspection: chunk framing is a
	// classic evasion surface (patterns split across chunk boundaries would
	// otherwise never match the body buffer).
	if bytes.EqualFold(headerValue(req.Headers, hdrTransferEncoding), chunked) {
		mark = len(arena)
		decoded, rest, ok := appendDechunked(arena, body)
		if ok {
			req.Body, req.dechunked = decoded[mark:], true
			return req, rest, decoded, true
		}
		// Malformed framing: fall through and inspect the raw body.
		arena = decoded[:mark]
	}
	if cl := headerValue(req.Headers, hdrContentLength); len(cl) > 0 {
		if n, ok := contentLength(cl); ok && n <= len(body) {
			remainder = body[n:]
			body = body[:n]
		}
	}
	req.Body = body
	return req, remainder, arena, true
}

func knownMethod(method []byte) bool {
	for _, m := range httpMethods {
		if string(method) == m {
			return true
		}
	}
	return false
}

// contentLength parses a Content-Length value: decimal digits only, at most
// 1<<24.
func contentLength(v []byte) (int, bool) {
	n := 0
	for _, ch := range v {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
		if n > 1<<24 {
			return 0, false
		}
	}
	return n, true
}

// appendDechunked decodes an HTTP/1.1 chunked body, appending the decoded
// bytes to dst. It returns dst, the remainder after the terminating
// zero-chunk, and whether the framing parsed. Trailers are discarded.
func appendDechunked(dst, body []byte) (out, remainder []byte, ok bool) {
	rest := body
	for {
		lineEnd := bytes.Index(rest, crlf)
		if lineEnd < 0 {
			return dst, nil, false
		}
		sizeLine := rest[:lineEnd]
		// Chunk extensions (";ext=val") are ignored.
		if i := bytes.IndexByte(sizeLine, ';'); i >= 0 {
			sizeLine = sizeLine[:i]
		}
		size, ok := chunkSize(bytes.TrimSpace(sizeLine))
		if !ok {
			return dst, nil, false
		}
		rest = rest[lineEnd+2:]
		if size == 0 {
			// Terminating chunk: skip trailers up to the blank line.
			if i := bytes.Index(rest, crlf); i >= 0 {
				return dst, rest[i+2:], true
			}
			return dst, nil, true
		}
		if size > len(rest) {
			// Truncated capture: keep what we have.
			return append(dst, rest...), nil, true
		}
		dst = append(dst, rest[:size]...)
		rest = rest[size:]
		if len(rest) >= 2 && rest[0] == '\r' && rest[1] == '\n' {
			rest = rest[2:]
		}
	}
}

// chunkSize parses a chunk-size line's hex digits (at most 1<<24). It walks
// runes and tests each rune's low byte, so a multi-byte rune whose low byte
// is a hex digit (U+0131 -> '1') counts as that digit. The quirk is kept on
// purpose: FuzzExtractBuffers holds this parser to the string-based
// reference, rune semantics included, so no verdict moves.
func chunkSize(s []byte) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	size := 0
	for len(s) > 0 {
		r, n := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(s)
		}
		v, ok := unhex(byte(r))
		if !ok {
			return 0, false
		}
		size = size<<4 | int(v)
		if size > 1<<24 {
			return 0, false
		}
		s = s[n:]
	}
	return size, true
}

func trimLeadingEOL(b []byte) []byte {
	if len(b) >= 2 && b[0] == '\r' && b[1] == '\n' {
		return b[2:]
	}
	if len(b) >= 1 && b[0] == '\n' {
		return b[1:]
	}
	return b
}

func trimTrailingCR(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1]
	}
	return b
}

// headerLine reports whether one raw header line (split on '\n') carries
// header name, case-insensitively, and returns its trimmed value.
func headerLine(line, name []byte) ([]byte, bool) {
	line = trimTrailingCR(line)
	i := bytes.IndexByte(line, ':')
	if i < 0 || !bytes.EqualFold(bytes.TrimSpace(line[:i]), name) {
		return nil, false
	}
	return bytes.TrimSpace(line[i+1:]), true
}

// headerValue extracts the (first) value of name from a raw header block,
// case-insensitively.
func headerValue(headers, name []byte) []byte {
	for rest := headers; ; {
		line := rest
		i := bytes.IndexByte(rest, '\n')
		if i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		}
		if v, ok := headerLine(line, name); ok {
			return v
		}
		if i < 0 {
			return nil
		}
	}
}

// appendStrippedHeader appends headers to dst with every line whose header
// name matches name (case-insensitively) removed; kept lines stay joined by
// '\n'.
func appendStrippedHeader(dst, headers, name []byte) []byte {
	first := true
	for rest := headers; ; {
		line := rest
		i := bytes.IndexByte(rest, '\n')
		if i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		}
		if _, drop := headerLine(line, name); !drop {
			if !first {
				dst = append(dst, '\n')
			}
			dst = append(dst, line...)
			first = false
		}
		if i < 0 {
			return dst
		}
	}
}

func isToken(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	for _, c := range s {
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}
