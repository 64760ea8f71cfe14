package serve

import (
	"errors"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// This file owns the ledger of a charged response and its place in both
// encodings. A JSON /query or /reconstruct body is the object WriteJSON
// writes from QueryResponse or ReconstructResponse: id, answers or
// results, charged and serve_us, then the router-owned group — client,
// client_queries, budget_remaining, budget_exact, exposure_warning — as its
// last members. ReadJSONLedger and SpliceJSONLedger are the JSON twin of
// wire.ReadLedger and wire.PatchLedger: a routing layer reads the charge
// and replaces the group without decoding the answers.

// Ledger is the exposure block of a charged response: the client's
// cumulative exposure after the charge, the window budget left (-1 when
// enforcement is disabled), whether those counts are exact rather than
// sketch upper bounds, and whether the total crossed the operator's
// warning threshold. serve and the fleet router both build it with
// LedgerOf.
type Ledger struct {
	ClientQueries   int64 `json:"client_queries"`
	BudgetRemaining int64 `json:"budget_remaining"`
	BudgetExact     bool  `json:"budget_exact,omitempty"`
	ExposureWarning bool  `json:"exposure_warning,omitempty"`
}

// defaultExposureWarn is Config.ExposureWarn's default: 10× the paper's
// 5,000-query workload.
const defaultExposureWarn = 50000

// LedgerOf converts a budget charge result into the response ledger.
// warnAt follows Config.ExposureWarn: 0 is the default threshold, a
// negative value disables the warning.
func LedgerOf(res budget.Result, warnAt int64) Ledger {
	if warnAt == 0 {
		warnAt = defaultExposureWarn
	}
	l := Ledger{ClientQueries: res.Total, BudgetRemaining: res.Remaining, BudgetExact: res.Exact,
		ExposureWarning: warnAt > 0 && res.Total > warnAt}
	if res.Remaining == budget.Unlimited {
		l.BudgetRemaining = -1
	}
	return l
}

// Wire is the ledger's binary-frame form for a batch that charged
// charged units; disabled enforcement becomes wire.UnlimitedBudget.
func (l Ledger) Wire(charged int64) wire.Ledger {
	rem := uint64(l.BudgetRemaining)
	if l.BudgetRemaining < 0 {
		rem = wire.UnlimitedBudget
	}
	return wire.Ledger{Charged: uint64(charged), ClientQueries: uint64(l.ClientQueries),
		BudgetRemaining: rem, ExposureWarning: l.ExposureWarning, BudgetExact: l.BudgetExact}
}

// JSONLedger locates the ledger of a JSON /query or /reconstruct body:
// Charged is the batch's charge; body[:Answers] is the opening, id and
// answers or results, the bytes the replica alone determines; and
// body[Group:End] is the router-owned group.
type JSONLedger struct {
	Charged             int64
	Answers, Group, End int
}

var errNoLedger = errors.New("not a JSON batch response in the served layout")

// ReadJSONLedger locates the ledger of a JSON /query or /reconstruct body
// in exactly the layout WriteJSON gives QueryResponse and
// ReconstructResponse. It validates every byte, so a body it accepts
// splices into valid JSON; any other body — another build's member
// order, a truncated body, a charge that is not a positive integer — is
// an error.
func ReadJSONLedger(body []byte) (JSONLedger, error) {
	const sep = ",\n" + jsonIndent
	s := jsonScan{b: body}
	var at JSONLedger
	ok := s.lit("{\n"+jsonIndent+`"id": `) && s.str() &&
		(s.lit(sep+`"answers": `) || s.lit(sep+`"results": `)) && s.value(0)
	at.Answers = s.i
	ok = ok && s.lit(sep+`"charged": `) && s.count(&at.Charged) && s.lit(sep+`"serve_us": `) && s.value(0) && s.lit(sep)
	at.Group = s.i
	ok = ok && s.lit(`"client": `) && s.str() && s.lit(sep+`"client_queries": `) && s.value(0) &&
		s.lit(sep+`"budget_remaining": `) && s.value(0)
	if s.lit(sep + `"budget_exact": `) {
		ok = ok && s.value(0)
	}
	if s.lit(sep + `"exposure_warning": `) {
		ok = ok && s.value(0)
	}
	at.End = s.i
	if !ok || !s.lit("\n}\n") || s.i != len(body) {
		return JSONLedger{}, errNoLedger
	}
	return at, nil
}

// SpliceJSONLedger returns body with the group at locates replaced by
// client and led, written byte for byte as WriteJSON writes them; every
// other byte of body is kept. The result is a fresh slice.
func SpliceJSONLedger(body []byte, at JSONLedger, client string, led Ledger) []byte {
	const sep = ",\n" + jsonIndent
	out := make([]byte, 0, len(body)+len(client)+64)
	out = appendClient(append(out, body[:at.Group]...), client)
	out = strconv.AppendInt(append(out, sep+`"client_queries": `...), led.ClientQueries, 10)
	out = strconv.AppendInt(append(out, sep+`"budget_remaining": `...), led.BudgetRemaining, 10)
	if led.BudgetExact {
		out = append(out, sep+`"budget_exact": true`...)
	}
	if led.ExposureWarning {
		out = append(out, sep+`"exposure_warning": true`...)
	}
	return append(out, body[at.End:]...)
}

// appendClient appends the client member, its value s written as
// encoding/json writes a string: quotes and backslashes escaped; control
// characters as \b \f \n \r \t or \u00XX; <, >, &, U+2028 and U+2029 as
// \u escapes; and each invalid UTF-8 byte as \ufffd.
func appendClient(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, `"client": "`...)
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case r == '\b' || r == '\t' || r == '\n' || r == '\f' || r == '\r':
			dst = append(dst, '\\', "btn?fr"[r-'\b']) // \b \t \n (\v) \f \r
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == 0x2028 || r == 0x2029:
			dst = append(dst, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		default:
			dst = append(dst, s[i:i+n]...)
		}
		i += n
	}
	return append(dst, '"')
}

// jsonScan is ReadJSONLedger's cursor. Each method consumes what its name
// says, checked against the JSON grammar, and reports whether it was
// there.
type jsonScan struct {
	b []byte
	i int
}

// maxJSONDepth bounds nesting; served bodies nest three deep.
const maxJSONDepth = 16

// lit consumes the bytes of l.
func (s *jsonScan) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// tok consumes whitespace and then the byte c.
func (s *jsonScan) tok(c byte) bool {
	if s.ws() != c {
		return false
	}
	s.i++
	return true
}

// ws consumes whitespace and returns the next byte, 0 at the end.
func (s *jsonScan) ws() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// count consumes a positive integer of at most 18 digits into *v.
func (s *jsonScan) count(v *int64) bool {
	start := s.i
	for *v = 0; s.i < len(s.b) && s.i-start < 18 && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		*v = *v*10 + int64(s.b[s.i]-'0')
	}
	return *v > 0 && s.b[start] != '0'
}

// digits consumes a run of decimal digits and reports whether it was not
// empty.
func (s *jsonScan) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// str consumes a string.
func (s *jsonScan) str() bool {
	if !s.lit(`"`) {
		return false
	}
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return true
		case c < ' ' || c == '\\' && s.i == len(s.b):
			return false
		case c == '\\' && s.b[s.i] == 'u':
			s.i++
			for end := s.i + 4; s.i < end; s.i++ {
				if s.i == len(s.b) || strings.IndexByte("0123456789abcdefABCDEF", s.b[s.i]) < 0 {
					return false
				}
			}
		case c == '\\':
			if strings.IndexByte(`"\/bfnrt`, s.b[s.i]) < 0 {
				return false
			}
			s.i++
		}
	}
	return false
}

// value consumes whitespace and then one value; depth counts the
// containers it sits in.
func (s *jsonScan) value(depth int) bool {
	switch c := s.ws(); {
	case c == '"':
		return s.str()
	case (c == '{' || c == '[') && depth < maxJSONDepth:
		s.i++
		if s.tok(c + 2) { // '}' or ']'
			return true
		}
		for {
			if c == '{' && !(s.ws() == '"' && s.str() && s.tok(':')) || !s.value(depth+1) {
				return false
			}
			if !s.tok(',') {
				return s.tok(c + 2)
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		s.lit("-")
		if !(s.lit("0") || s.digits()) || s.lit(".") && !s.digits() {
			return false
		}
		if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
			s.i++
			_ = s.lit("+") || s.lit("-")
			return s.digits()
		}
		return true
	}
	return s.lit("true") || s.lit("false") || s.lit("null")
}
