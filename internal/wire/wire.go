// Package wire implements the compact binary framing for the server's
// hottest endpoints: POST /query, POST /reconstruct, and the POST /insert
// firehose. JSON remains the default encoding everywhere; a client opts in
// per request with
// Content-Type: application/x-rp-binary, and the server answers success in
// the same encoding (errors stay in the JSON ErrorBody envelope so the
// typed error taxonomy is shared by both paths).
//
// Every frame is length-prefixed and little-endian:
//
//	frame     := 'R' 'P' version(u8) kind(u8) payloadLen(u32) payload
//	queryReq  := str8(id) str8(client) flags(u8) n(u32) query×n
//	query     := sa(u16) nConds(u8) cond×nConds
//	cond      := attr(u16) value(u16)
//	queryResp := ledger n(u32) answer×n
//	answer    := 0x00 count(u64) estimate(f64)  |  0x01 str16(error)
//	reconReq  := str8(id) str8(client) flags(u8) n(u32) subset×n
//	subset    := nConds(u8) cond×nConds
//	reconResp := ledger n(u32) result×n
//	result    := 0x00 size(u64) nFreqs(u16) f64×nFreqs  |  0x01 str16(error)
//	ledger    := str8(id) str8(client) charged(u64) clientQueries(u64)
//	             budgetRemaining(u64) flags(u8) serveMicros(u64)
//	insertReq := str8(id) str8(client) flags(u8) nAttrs(u8) n(u32) record×n
//	record    := code(u16)×nAttrs
//	insertResp:= str8(id) str8(client) inserted(u32) trials(u32)
//	             absorbed(u32) totalRecords(u64)
//
// str8/str16 are length-prefixed byte strings (u8/u16 length). Request
// flags: bit0 = wait, bit1 = clamp (reconstruct only). Response flags:
// bit0 = exposure warning, bit1 = budget counts are exact (an unset bit
// means sketch upper bounds). budgetRemaining is the client's window
// budget left after the charge; all-ones means enforcement is disabled.
// Conditions carry original schema codes — attr
// is the attribute's schema index, value the index into its original
// Values list — and the server maps them through the publication's
// generalization, exactly mirroring the JSON label resolution.
//
// The ledger block sits at a computable offset before the variable-length
// answers, so a routing layer (internal/fleet) can charge its own
// authoritative ledger and patch client/client_queries/exposure_warning
// without re-encoding the answers.
//
// The codec is allocation-free on the steady state: decoders parse into
// reusable structs whose backing slices persist across calls, byte-string
// fields are zero-copy views into the frame, and encoders append into a
// caller-owned buffer. Decoded requests therefore alias the frame buffer
// — the buffer must outlive the decoded struct. A query request has an
// in-place reader besides its decoder: QueryFrame validates the frame in
// one pass and decodes any one query on demand, so a server can decode
// each query where it answers it and append each answer with AppendAnswer
// behind QueryResp.AppendHead; QueryReq.Decode is the same pass plus
// materialization of every query.
package wire

import (
	"encoding/binary"
	"errors"
	"sync"
	"unsafe"
)

// ContentType is the negotiation token: requests carrying it are decoded
// as binary frames and answered in kind.
const ContentType = "application/x-rp-binary"

// Version is the frame format version this package speaks. The decoder
// rejects any other value, so a format change must bump it. Version 2
// added the ledger's budgetRemaining field and the budget-exact response
// flag.
const Version = 2

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 8

const (
	magic0 = 'R'
	magic1 = 'P'
)

// Frame kinds.
const (
	KindQueryReq        = 1
	KindQueryResp       = 2
	KindReconstructReq  = 3
	KindReconstructResp = 4
	KindInsertReq       = 5
	KindInsertResp      = 6
)

// Request flag bits.
const (
	flagWait  = 1 << 0
	flagClamp = 1 << 1
)

// Response flag bits.
const (
	flagWarning     = 1 << 0
	flagBudgetExact = 1 << 1
)

// The decoder's typed failure set. Servers map all of these onto the
// bad_request error code; tests and the fuzzers distinguish them with
// errors.Is.
var (
	// ErrTruncated reports a frame shorter than its header or declared
	// payload demands.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMagic reports a body that is not a wire frame at all.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion reports an unsupported format version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrKind reports a frame of the wrong kind for the decoder invoked.
	ErrKind = errors.New("wire: unexpected frame kind")
	// ErrTrailing reports bytes beyond the declared payload, or payload
	// bytes beyond the last field — both mean a corrupt or hostile frame.
	ErrTrailing = errors.New("wire: trailing bytes")
	// ErrCount reports a declared element count that cannot fit in the
	// remaining payload — caught before any allocation sized from it.
	ErrCount = errors.New("wire: declared count exceeds frame size")
	// ErrFlags reports flag bits or a union tag this version does not
	// define; rejecting them keeps decode(frame) a bijection (every
	// accepted frame re-encodes byte-identically, the property the
	// round-trip fuzzer pins).
	ErrFlags = errors.New("wire: unknown flag or tag value")
)

// FrameKind returns the kind byte of a frame after validating the header,
// without touching the payload. Routing layers dispatch on it.
func FrameKind(frame []byte) (byte, error) {
	if len(frame) < HeaderSize {
		return 0, ErrTruncated
	}
	if frame[0] != magic0 || frame[1] != magic1 {
		return 0, ErrMagic
	}
	if frame[2] != Version {
		return 0, ErrVersion
	}
	return frame[3], nil
}

// IsFrame reports whether a body looks like a wire frame (magic bytes
// present) — the cheap sniff routing layers use to pick a decode path.
func IsFrame(body []byte) bool {
	return len(body) >= HeaderSize && body[0] == magic0 && body[1] == magic1
}

// payload validates the full header against an expected kind and returns
// the payload view.
func payload(frame []byte, kind byte) ([]byte, error) {
	k, err := FrameKind(frame)
	if err != nil {
		return nil, err
	}
	if k != kind {
		return nil, ErrKind
	}
	n := int(binary.LittleEndian.Uint32(frame[4:8]))
	switch {
	case n > len(frame)-HeaderSize:
		return nil, ErrTruncated
	case n < len(frame)-HeaderSize:
		return nil, ErrTrailing
	}
	return frame[HeaderSize:], nil
}

// maxPooledBuffer bounds the buffers kept by the pool: one giant request
// must not pin its buffer forever.
const maxPooledBuffer = 1 << 22

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuffer returns a pooled byte buffer (length 0) for frame encoding or
// request body reads. Return it with PutBuffer.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a buffer to the pool. Oversized buffers are dropped.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// oversized reports whether s's backing array passes the bound PutBuffer
// applies, the one the decoders' Release methods apply to their arenas.
func oversized[T any](s []T) bool {
	var zero T
	return uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooledBuffer
}
