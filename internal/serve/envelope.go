package serve

import (
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// A simulate reply is a short envelope around the encoded result. The
// result's encoding depends only on its SimKey, so it lives in the
// key's one memo entry (exp.Memo.JSON): made on the entry's first
// serve, kept while the entry is resident, dropped with it. Every
// answer — a miss, a memo hit, or a degraded stale answer carrying
// bytes a staleRecord kept — writes the envelope by hand and splices
// the encoding in. The body is byte-identical to what json.Encoder
// (SetEscapeHTML(false)) writes for the equivalent SimResponse;
// TestSplicedBodyMatchesEncoder and FuzzSimEnvelope hold the two
// together.

// simEnvelope is a SimResponse without its result.
type simEnvelope struct {
	platform, dataset string
	nodes, batches    int
	cached, degraded  bool
	wallMS            float64
}

// appendSimHead appends e's members and the "result" member name, in
// SimResponse's field order: "degraded" only when true (omitempty).
func appendSimHead(b []byte, e simEnvelope) []byte {
	b = append(b, `{"platform":`...)
	b = appendJSONString(b, e.platform)
	b = append(b, `,"dataset":`...)
	b = appendJSONString(b, e.dataset)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(e.nodes), 10)
	b = append(b, `,"batches":`...)
	b = strconv.AppendInt(b, int64(e.batches), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, e.cached)
	if e.degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = append(b, `,"wall_ms":`...)
	b = appendJSONFloat(b, e.wallMS)
	return append(b, `,"result":`...)
}

// simTail closes the SimResponse object; json.Encoder ends every value
// with a newline.
var simTail = []byte("}\n")

// writeSim writes a 200 simulate reply: the envelope, then the encoded
// result, then the tail. Write errors after the header are
// connection problems, not server state, so they are dropped.
func (s *Server) writeSim(w http.ResponseWriter, e simEnvelope, result []byte) {
	s.reg.Counter(`beaconserved_responses_total{code="200"}`).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var head [192]byte
	_, _ = w.Write(appendSimHead(head[:0], e))
	_, _ = w.Write(result)
	_, _ = w.Write(simTail)
}

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping off: quote, backslash and control bytes escaped (\b \f \n \r
// \t short, the rest \u00XX), invalid UTF-8 replaced by \ufffd, and
// U+2028/U+2029 escaped for JSONP safety.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// like ES6 number-to-string, plain decimal unless |f| < 1e-6 or
// |f| >= 1e21, and a two-digit negative exponent trimmed (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
