package ids

import "bytes"

// URI normalization. Snort inspects http_uri content against the
// *normalized* request target precisely because scanners percent-encode
// exploit tokens to slip past literal matching (the Log4Shell variants of
// Table 6 are one instance of the same arms race). The engine therefore
// evaluates http_uri options against the raw target and, when it differs,
// the normalized form as well.

// NormalizeURI decodes percent-escapes (one pass — double-encoding is left
// for a second decode by the application and deliberately not chased),
// converts backslashes to slashes, and collapses "/./" and "//" path
// noise. Invalid escapes are preserved literally. The query string is
// decoded but otherwise untouched.
func NormalizeURI(uri string) string {
	return string(appendNormalizedURI(nil, []byte(uri)))
}

// appendNormalizedURI appends NormalizeURI(uri) to dst. The result is never
// longer than uri: decoding only shrinks, and the path cleanup only deletes,
// so it runs in place behind the decoder.
func appendNormalizedURI(dst, uri []byte) []byte {
	start := len(dst)
	for i := 0; i < len(uri); i++ {
		c := uri[i]
		if c == '%' && i+2 < len(uri) {
			hi, okHi := unhex(uri[i+1])
			lo, okLo := unhex(uri[i+2])
			if okHi && okLo {
				dst = append(dst, hi<<4|lo)
				i += 2
				continue
			}
		}
		if c == '+' {
			// '+' means space in query strings; in paths it is literal, but
			// Snort's normalizer treats it as space uniformly — scanners
			// exploit whichever reading the server takes.
			c = ' '
		}
		dst = append(dst, c)
	}
	// Split off the (decoded) query: path-structure cleanup applies to the
	// path only.
	decoded := dst[start:]
	pathEnd := len(decoded)
	if i := bytes.IndexByte(decoded, '?'); i >= 0 {
		pathEnd = i
	}
	w := 0
	for r := 0; r < pathEnd; r++ {
		c := decoded[r]
		if c == '\\' {
			c = '/'
		}
		if c == '/' {
			// Collapse "//" and "/./".
			if w > 0 && decoded[w-1] == '/' {
				continue
			}
			if w >= 2 && decoded[w-1] == '.' && decoded[w-2] == '/' {
				w--
				continue
			}
		}
		decoded[w] = c
		w++
	}
	w += copy(decoded[w:], decoded[pathEnd:])
	return dst[:start+w]
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
