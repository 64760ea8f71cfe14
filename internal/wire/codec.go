package wire

import (
	"encoding/binary"
	"math"

	"github.com/reconpriv/reconpriv/internal/query"
)

// Cond is the engine condition type carried on the wire: attr is the
// schema attribute index, value an original value code.
type Cond = query.Cond

// span marks a sub-slice of a decode arena; views are materialized only
// after the arena stops growing.
type span struct{ off, n int }

// --- little-endian primitives ---

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// appendBytes8 writes a str8; inputs beyond 255 bytes are truncated (ids
// and client names are short by construction).
func appendBytes8(dst []byte, b []byte) []byte {
	if len(b) > 255 {
		b = b[:255]
	}
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

// appendBytes16 writes a str16; inputs beyond 64 KiB are truncated (error
// messages).
func appendBytes16(dst []byte, b []byte) []byte {
	if len(b) > 65535 {
		b = b[:65535]
	}
	dst = appendU16(dst, uint16(len(b)))
	return append(dst, b...)
}

// beginFrame appends the fixed header with a zero length placeholder and
// returns the payload start offset; endFrame back-patches the length.
func beginFrame(dst []byte, kind byte) ([]byte, int) {
	dst = append(dst, magic0, magic1, Version, kind, 0, 0, 0, 0)
	return dst, len(dst)
}

func endFrame(dst []byte, payloadStart int) []byte {
	binary.LittleEndian.PutUint32(dst[payloadStart-4:payloadStart], uint32(len(dst)-payloadStart))
	return dst
}

// reader is a bounds-checked cursor over a payload with a sticky failure
// flag: after the first short read every subsequent read yields zero, and
// the caller checks ok once per structural boundary.
type reader struct {
	b   []byte
	off int
	ok  bool
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if !r.ok || r.off >= len(r.b) {
		r.ok = false
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.ok || r.off+2 > len(r.b) {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.ok || r.off+4 > len(r.b) {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.ok || r.off+8 > len(r.b) {
		r.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// bytes8 reads a str8 and returns a zero-copy view into the payload.
func (r *reader) bytes8() []byte {
	n := int(r.u8())
	if !r.ok || r.off+n > len(r.b) {
		r.ok = false
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// bytes16 reads a str16 view.
func (r *reader) bytes16() []byte {
	n := int(r.u16())
	if !r.ok || r.off+n > len(r.b) {
		r.ok = false
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// --- POST /query request ---

// MaxConds is the most conditions one query or subset can carry: its
// nConds field is a u8. A condition buffer of this length holds any query
// QueryFrame.Query decodes.
const MaxConds = 255

// Query is one count query inside a QueryReq: conjunctive conditions plus
// one sensitive value, all as original codes.
type Query struct {
	SA    uint16
	Conds []Cond
}

// QueryFrame is the in-place reader of a KindQueryReq frame: Parse
// validates the whole frame in one pass and records where each query
// starts, and Query decodes one query into caller storage, so a server can
// decode every query where it answers it, in any order and from any
// goroutine. ID and Client are zero-copy views into the frame, and the
// frame must outlive the reader. The struct is reusable: Parse allocates
// only when the batch outgrows the offsets a previous frame left.
type QueryFrame struct {
	ID     []byte
	Client []byte
	Wait   bool

	p      []byte   // the payload
	offs   []uint32 // offs[i]: payload offset of query i's sa field
	nconds int      // conditions over all queries
}

// Parse validates frame as a KindQueryReq frame — the one place its
// grammar is checked — and indexes its queries. On error the reader's
// contents are undefined.
func (f *QueryFrame) Parse(frame []byte) error {
	p, err := payload(frame, KindQueryReq)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	f.ID = r.bytes8()
	f.Client = r.bytes8()
	flags := r.u8()
	if flags&^byte(flagWait) != 0 {
		return ErrFlags
	}
	f.Wait = flags&flagWait != 0
	n := int(r.u32())
	if !r.ok {
		return ErrTruncated
	}
	// Each query is at least sa(2)+nConds(1) bytes: a declared count that
	// cannot fit is rejected before any allocation sized from it.
	if n > r.remaining()/3 {
		return ErrCount
	}
	if cap(f.offs) < n {
		f.offs = make([]uint32, n)
	}
	f.offs = f.offs[:n]
	f.p, f.nconds = p, 0
	off := r.off
	for i := range f.offs {
		// sa(2) nConds(1), then nConds conditions of 4 bytes.
		if len(p)-off < 3 || int(p[off+2])*4 > len(p)-off-3 {
			return ErrTruncated
		}
		nc := int(p[off+2])
		f.offs[i] = uint32(off)
		f.nconds += nc
		off += 3 + nc*4
	}
	if off != len(p) {
		return ErrTrailing
	}
	return nil
}

// Release readies the reader for a pool: it drops its views into the last
// frame, so the frame's buffer can be freed, and its offsets when they
// pass the bound PutBuffer applies.
func (f *QueryFrame) Release() {
	offs := f.offs[:0]
	if oversized(offs) {
		offs = nil
	}
	*f = QueryFrame{offs: offs}
}

// Len returns the number of queries in the parsed frame.
func (f *QueryFrame) Len() int { return len(f.offs) }

// Query decodes query i of the parsed frame: its sensitive value, and its
// conditions written into dst, which must have room for them (MaxConds
// always suffices). The returned conds is dst cut to the query's length
// and capacity.
func (f *QueryFrame) Query(i int, dst []Cond) (sa uint16, conds []Cond) {
	b := f.p[f.offs[i]:]
	sa = binary.LittleEndian.Uint16(b)
	nc := int(b[2])
	b = b[3 : 3+nc*4]
	conds = dst[:nc:nc]
	for j := range conds {
		c := b[j*4 : j*4+4]
		conds[j] = Cond{Attr: int(binary.LittleEndian.Uint16(c)), Value: binary.LittleEndian.Uint16(c[2:])}
	}
	return sa, conds
}

// QueryReq is the binary body of POST /query, materialized: every query
// decoded, for clients and tests that want the whole batch as values. ID
// and Client are zero-copy views into the decoded frame. The struct is
// reusable: Decode resets and refills it without allocating once its
// backing slices have grown to the workload's steady-state size.
type QueryReq struct {
	ID      []byte
	Client  []byte
	Wait    bool
	Queries []Query

	f     QueryFrame
	conds []Cond // arena backing every query's Conds
}

// Append encodes the request as one frame appended to dst.
func (m *QueryReq) Append(dst []byte) []byte {
	dst, ps := beginFrame(dst, KindQueryReq)
	dst = appendBytes8(dst, m.ID)
	dst = appendBytes8(dst, m.Client)
	var flags byte
	if m.Wait {
		flags |= flagWait
	}
	dst = append(dst, flags)
	dst = appendU32(dst, uint32(len(m.Queries)))
	for i := range m.Queries {
		q := &m.Queries[i]
		dst = appendU16(dst, q.SA)
		dst = append(dst, byte(len(q.Conds)))
		for _, c := range q.Conds {
			dst = appendU16(dst, uint16(c.Attr))
			dst = appendU16(dst, c.Value)
		}
	}
	return endFrame(dst, ps)
}

// Decode parses a full frame through QueryFrame and decodes every query
// into one arena. On error the struct contents are undefined; on success
// every byte-slice field aliases the frame, and each query's Conds is its
// own view of the arena (mutable in place — a server may rewrite codes
// through it).
func (m *QueryReq) Decode(frame []byte) error {
	f := &m.f
	if err := f.Parse(frame); err != nil {
		return err
	}
	m.ID, m.Client, m.Wait = f.ID, f.Client, f.Wait
	if cap(m.conds) < f.nconds {
		m.conds = make([]Cond, f.nconds)
	}
	m.conds = m.conds[:f.nconds]
	m.Queries = m.Queries[:0]
	rest := m.conds
	for i := 0; i < f.Len(); i++ {
		sa, conds := f.Query(i, rest)
		rest = rest[len(conds):]
		m.Queries = append(m.Queries, Query{SA: sa, Conds: conds})
	}
	return nil
}

// --- POST /query response ---

// Answer is one served answer: either a count/estimate pair or an error
// message (a view into the frame on decode).
type Answer struct {
	Count    int64
	Estimate float64
	Err      []byte
}

// UnlimitedBudget is the BudgetRemaining sentinel meaning enforcement is
// disabled: no finite budget applies to the client.
const UnlimitedBudget = ^uint64(0)

// Ledger is the router-relevant slice of a response: the exposure fields
// the fleet charges and rewrites. BudgetRemaining is the window budget
// left after the charge (UnlimitedBudget when enforcement is off);
// BudgetExact says whether the budget counts are exact rather than sketch
// upper bounds.
type Ledger struct {
	Charged         uint64
	ClientQueries   uint64
	BudgetRemaining uint64
	ExposureWarning bool
	BudgetExact     bool
}

// QueryResp is the binary body of a successful POST /query.
type QueryResp struct {
	ID     []byte
	Client []byte
	Ledger
	ServeMicros uint64
	Answers     []Answer
}

func appendLedger(dst []byte, id, client []byte, led Ledger, serveMicros uint64) []byte {
	dst = appendBytes8(dst, id)
	dst = appendBytes8(dst, client)
	dst = appendU64(dst, led.Charged)
	dst = appendU64(dst, led.ClientQueries)
	dst = appendU64(dst, led.BudgetRemaining)
	var flags byte
	if led.ExposureWarning {
		flags |= flagWarning
	}
	if led.BudgetExact {
		flags |= flagBudgetExact
	}
	dst = append(dst, flags)
	return appendU64(dst, serveMicros)
}

func (r *reader) ledger(m *Ledger) (id, client []byte, serveMicros uint64, err error) {
	id = r.bytes8()
	client = r.bytes8()
	m.Charged = r.u64()
	m.ClientQueries = r.u64()
	m.BudgetRemaining = r.u64()
	flags := r.u8()
	if r.ok && flags&^byte(flagWarning|flagBudgetExact) != 0 {
		return nil, nil, 0, ErrFlags
	}
	m.ExposureWarning = flags&flagWarning != 0
	m.BudgetExact = flags&flagBudgetExact != 0
	serveMicros = r.u64()
	return id, client, serveMicros, nil
}

// Append encodes the response as one frame appended to dst.
func (m *QueryResp) Append(dst []byte) []byte {
	start := len(dst)
	dst = m.AppendHead(dst, len(m.Answers), 0)
	for i := range m.Answers {
		dst = AppendAnswer(dst, m.Answers[i])
	}
	return endFrame(dst, start+HeaderSize)
}

// AppendHead appends everything of the response frame before its answers
// — the header, the ledger and the answer count n — leaving Answers
// unread. It is for a server that encodes its answers as it computes them:
// the n answers that follow, appended by AppendAnswer, take answerBytes
// bytes in all, which the header's payload length counts.
func (m *QueryResp) AppendHead(dst []byte, n, answerBytes int) []byte {
	dst, ps := beginFrame(dst, KindQueryResp)
	dst = appendLedger(dst, m.ID, m.Client, m.Ledger, m.ServeMicros)
	dst = appendU32(dst, uint32(n))
	binary.LittleEndian.PutUint32(dst[ps-4:ps], uint32(len(dst)-ps+answerBytes))
	return dst
}

// AppendAnswer appends one encoded answer: the error message when a.Err
// is non-nil, otherwise the count and estimate.
func AppendAnswer(dst []byte, a Answer) []byte {
	if a.Err != nil {
		dst = append(dst, 1)
		return appendBytes16(dst, a.Err)
	}
	dst = append(dst, 0)
	dst = appendU64(dst, uint64(a.Count))
	return appendF64(dst, a.Estimate)
}

// Decode parses a full frame; byte-slice fields alias it.
func (m *QueryResp) Decode(frame []byte) error {
	p, err := payload(frame, KindQueryResp)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	id, client, mic, lerr := r.ledger(&m.Ledger)
	if lerr != nil {
		return lerr
	}
	m.ID, m.Client, m.ServeMicros = id, client, mic
	n := int(r.u32())
	if !r.ok {
		return ErrTruncated
	}
	if n > r.remaining() { // each answer is at least one tag byte
		return ErrCount
	}
	m.Answers = m.Answers[:0]
	for i := 0; i < n; i++ {
		var a Answer
		switch r.u8() {
		case 0:
			a.Count = int64(r.u64())
			a.Estimate = r.f64()
		case 1:
			a.Err = r.bytes16()
			if a.Err == nil {
				a.Err = []byte{}
			}
		default:
			return ErrFlags
		}
		if !r.ok {
			return ErrTruncated
		}
		m.Answers = append(m.Answers, a)
	}
	if r.remaining() != 0 {
		return ErrTrailing
	}
	return nil
}

// --- POST /reconstruct request ---

// ReconstructReq is the binary body of POST /reconstruct: condition
// subsets as original codes, one reconstruction each.
type ReconstructReq struct {
	ID      []byte
	Client  []byte
	Clamp   bool
	Wait    bool
	Subsets [][]Cond

	conds []Cond
	spans []span
}

// Append encodes the request as one frame appended to dst.
func (m *ReconstructReq) Append(dst []byte) []byte {
	dst, ps := beginFrame(dst, KindReconstructReq)
	dst = appendBytes8(dst, m.ID)
	dst = appendBytes8(dst, m.Client)
	var flags byte
	if m.Wait {
		flags |= flagWait
	}
	if m.Clamp {
		flags |= flagClamp
	}
	dst = append(dst, flags)
	dst = appendU32(dst, uint32(len(m.Subsets)))
	for _, set := range m.Subsets {
		dst = append(dst, byte(len(set)))
		for _, c := range set {
			dst = appendU16(dst, uint16(c.Attr))
			dst = appendU16(dst, c.Value)
		}
	}
	return endFrame(dst, ps)
}

// Release readies the request for a pool: it drops its views into the
// last frame, so the frame's buffer can be freed, and all of its arenas
// when any passes the bound PutBuffer applies.
func (m *ReconstructReq) Release() {
	if oversized(m.Subsets) || oversized(m.conds) || oversized(m.spans) {
		*m = ReconstructReq{}
		return
	}
	*m = ReconstructReq{Subsets: m.Subsets[:0], conds: m.conds[:0], spans: m.spans[:0]}
}

// Decode parses a full frame; byte-slice fields alias it.
func (m *ReconstructReq) Decode(frame []byte) error {
	p, err := payload(frame, KindReconstructReq)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	m.ID = r.bytes8()
	m.Client = r.bytes8()
	flags := r.u8()
	if flags&^byte(flagWait|flagClamp) != 0 {
		return ErrFlags
	}
	m.Wait = flags&flagWait != 0
	m.Clamp = flags&flagClamp != 0
	n := int(r.u32())
	if !r.ok {
		return ErrTruncated
	}
	if n > r.remaining() { // each subset is at least one count byte
		return ErrCount
	}
	m.Subsets = m.Subsets[:0]
	m.conds = m.conds[:0]
	m.spans = m.spans[:0]
	for i := 0; i < n; i++ {
		nc := int(r.u8())
		if !r.ok || nc*4 > r.remaining() {
			return ErrTruncated
		}
		off := len(m.conds)
		for j := 0; j < nc; j++ {
			a := r.u16()
			v := r.u16()
			m.conds = append(m.conds, Cond{Attr: int(a), Value: v})
		}
		m.spans = append(m.spans, span{off, nc})
	}
	if !r.ok {
		return ErrTruncated
	}
	if r.remaining() != 0 {
		return ErrTrailing
	}
	for _, sp := range m.spans {
		m.Subsets = append(m.Subsets, m.conds[sp.off:sp.off+sp.n:sp.off+sp.n])
	}
	return nil
}

// --- POST /reconstruct response ---

// RecResult is one subset's reconstruction: the observed size and the
// estimated SA frequency vector, dense by original sensitive-value code
// (labels are recoverable from GET /publications?domains=1). Freqs is nil
// for an empty subset; Err reports a per-subset failure.
type RecResult struct {
	Size  int64
	Freqs []float64
	Err   []byte
}

// ReconstructResp is the binary body of a successful POST /reconstruct.
type ReconstructResp struct {
	ID     []byte
	Client []byte
	Ledger
	ServeMicros uint64
	Results     []RecResult

	freqs []float64
	spans []span
}

// Append encodes the response as one frame appended to dst.
func (m *ReconstructResp) Append(dst []byte) []byte {
	dst, ps := beginFrame(dst, KindReconstructResp)
	dst = appendLedger(dst, m.ID, m.Client, m.Ledger, m.ServeMicros)
	dst = appendU32(dst, uint32(len(m.Results)))
	for i := range m.Results {
		res := &m.Results[i]
		if res.Err != nil {
			dst = append(dst, 1)
			dst = appendBytes16(dst, res.Err)
			continue
		}
		dst = append(dst, 0)
		dst = appendU64(dst, uint64(res.Size))
		dst = appendU16(dst, uint16(len(res.Freqs)))
		for _, f := range res.Freqs {
			dst = appendF64(dst, f)
		}
	}
	return endFrame(dst, ps)
}

// Decode parses a full frame; byte-slice fields alias it.
func (m *ReconstructResp) Decode(frame []byte) error {
	p, err := payload(frame, KindReconstructResp)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	id, client, mic, lerr := r.ledger(&m.Ledger)
	if lerr != nil {
		return lerr
	}
	m.ID, m.Client, m.ServeMicros = id, client, mic
	n := int(r.u32())
	if !r.ok {
		return ErrTruncated
	}
	if n > r.remaining() { // each result is at least one tag byte
		return ErrCount
	}
	m.Results = m.Results[:0]
	m.freqs = m.freqs[:0]
	m.spans = m.spans[:0]
	for i := 0; i < n; i++ {
		var res RecResult
		sp := span{off: -1}
		switch r.u8() {
		case 0:
			res.Size = int64(r.u64())
			nf := int(r.u16())
			if !r.ok || nf*8 > r.remaining() {
				return ErrTruncated
			}
			if nf > 0 {
				sp = span{off: len(m.freqs), n: nf}
				for j := 0; j < nf; j++ {
					m.freqs = append(m.freqs, r.f64())
				}
			}
		case 1:
			res.Err = r.bytes16()
			if res.Err == nil {
				res.Err = []byte{}
			}
		default:
			return ErrFlags
		}
		if !r.ok {
			return ErrTruncated
		}
		m.Results = append(m.Results, res)
		m.spans = append(m.spans, sp)
	}
	if r.remaining() != 0 {
		return ErrTrailing
	}
	for i, sp := range m.spans {
		if sp.off >= 0 {
			m.Results[i].Freqs = m.freqs[sp.off : sp.off+sp.n : sp.off+sp.n]
		}
	}
	return nil
}
