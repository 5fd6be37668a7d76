package ids

import (
	"bytes"
	"strings"
)

// The reference HTTP parser: the string-based parseHTTPRequest, dechunk,
// headerValue, stripHeader and NormalizeURI that the zero-copy views in
// http.go replaced, kept verbatim under ref names as the oracle
// FuzzExtractBuffers holds the byte parser to, field for field — the same
// arrangement as the map-trie walker kept as the compiled automaton's
// oracle.

// refRequest is one request as the reference parser produces it.
type refRequest struct {
	Method, URI, Headers, Cookie, Body string
}

// refExtractBuffers is ExtractBuffers over the reference parser.
func refExtractBuffers(clientData []byte) []refRequest {
	var out []refRequest
	rest := clientData
	for len(rest) > 0 && len(out) < 32 {
		req, remainder, ok := refParseHTTPRequest(rest)
		if !ok {
			break
		}
		out = append(out, req)
		if len(remainder) >= len(rest) {
			break
		}
		rest = remainder
	}
	return out
}

func refParseHTTPRequest(data []byte) (refRequest, []byte, bool) {
	lineEnd := bytes.Index(data, []byte("\r\n"))
	if lineEnd < 0 {
		lineEnd = bytes.IndexByte(data, '\n')
		if lineEnd < 0 {
			return refRequest{}, nil, false
		}
	}
	line := strings.TrimRight(string(data[:lineEnd]), "\r")
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		return refRequest{}, nil, false
	}
	method := parts[0]
	known := false
	for _, m := range httpMethods {
		if method == m {
			known = true
			break
		}
	}
	if !known {
		if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") || !refIsToken(method) {
			return refRequest{}, nil, false
		}
	}
	req := refRequest{Method: method, URI: parts[1]}

	afterLine := data[lineEnd:]
	afterLine = trimLeadingEOL(afterLine)
	hdrEnd := bytes.Index(afterLine, []byte("\r\n\r\n"))
	sepLen := 4
	if hdrEnd < 0 {
		hdrEnd = bytes.Index(afterLine, []byte("\n\n"))
		sepLen = 2
	}
	var body []byte
	if hdrEnd < 0 {
		req.Headers = string(afterLine)
	} else {
		req.Headers = string(afterLine[:hdrEnd])
		body = afterLine[hdrEnd+sepLen:]
	}
	req.Cookie = refHeaderValue(req.Headers, "cookie")
	if req.Cookie != "" {
		req.Headers = refStripHeader(req.Headers, "cookie")
	}

	remainder := []byte(nil)
	if strings.EqualFold(refHeaderValue(req.Headers, "transfer-encoding"), "chunked") {
		decoded, rest, ok := refDechunk(body)
		if ok {
			req.Body = string(decoded)
			return req, rest, true
		}
	}
	if cl := refHeaderValue(req.Headers, "content-length"); cl != "" {
		n := 0
		for _, ch := range cl {
			if ch < '0' || ch > '9' {
				n = -1
				break
			}
			n = n*10 + int(ch-'0')
			if n > 1<<24 {
				n = -1
				break
			}
		}
		if n >= 0 && n <= len(body) {
			remainder = body[n:]
			body = body[:n]
		}
	}
	req.Body = string(body)
	return req, remainder, true
}

func refDechunk(body []byte) (decoded, remainder []byte, ok bool) {
	rest := body
	for {
		lineEnd := bytes.Index(rest, []byte("\r\n"))
		if lineEnd < 0 {
			return nil, nil, false
		}
		sizeLine := string(rest[:lineEnd])
		if i := strings.IndexByte(sizeLine, ';'); i >= 0 {
			sizeLine = sizeLine[:i]
		}
		size := 0
		sizeLine = strings.TrimSpace(sizeLine)
		if sizeLine == "" {
			return nil, nil, false
		}
		for _, c := range sizeLine {
			v, okd := unhex(byte(c))
			if !okd {
				return nil, nil, false
			}
			size = size<<4 | int(v)
			if size > 1<<24 {
				return nil, nil, false
			}
		}
		rest = rest[lineEnd+2:]
		if size == 0 {
			if i := bytes.Index(rest, []byte("\r\n")); i >= 0 {
				return decoded, rest[i+2:], true
			}
			return decoded, nil, true
		}
		if size > len(rest) {
			decoded = append(decoded, rest...)
			return decoded, nil, true
		}
		decoded = append(decoded, rest[:size]...)
		rest = rest[size:]
		if len(rest) >= 2 && rest[0] == '\r' && rest[1] == '\n' {
			rest = rest[2:]
		}
	}
}

func refHeaderValue(headers, name string) string {
	for _, line := range strings.Split(headers, "\n") {
		line = strings.TrimRight(line, "\r")
		i := strings.IndexByte(line, ':')
		if i < 0 {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(line[:i]), name) {
			return strings.TrimSpace(line[i+1:])
		}
	}
	return ""
}

func refStripHeader(headers, name string) string {
	lines := strings.Split(headers, "\n")
	kept := lines[:0]
	for _, line := range lines {
		trimmed := strings.TrimRight(line, "\r")
		if i := strings.IndexByte(trimmed, ':'); i >= 0 &&
			strings.EqualFold(strings.TrimSpace(trimmed[:i]), name) {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func refIsToken(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

func refNormalizeURI(uri string) string {
	decoded := refPercentDecode(uri)
	path := decoded
	query := ""
	if i := strings.IndexByte(decoded, '?'); i >= 0 {
		path, query = decoded[:i], decoded[i:]
	}
	path = refNormalizePath(path)
	return path + query
}

func refPercentDecode(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' && i+2 < len(s) {
			hi, okHi := unhex(s[i+1])
			lo, okLo := unhex(s[i+2])
			if okHi && okLo {
				out = append(out, hi<<4|lo)
				i += 2
				continue
			}
		}
		if c == '+' {
			out = append(out, ' ')
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

func refNormalizePath(p string) string {
	out := make([]byte, 0, len(p))
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c == '\\' {
			c = '/'
		}
		if c == '/' {
			if len(out) > 0 && out[len(out)-1] == '/' {
				continue
			}
			if len(out) >= 2 && out[len(out)-1] == '.' && out[len(out)-2] == '/' {
				out = out[:len(out)-1]
				continue
			}
		}
		out = append(out, c)
	}
	return string(out)
}
