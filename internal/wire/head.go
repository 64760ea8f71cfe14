package wire

import "encoding/binary"

// This file is the routing layer's view of a frame: internal/fleet places
// a request by publication id, charges its authoritative exposure ledger
// from the replica's charged field, and rewrites the ledger fields of the
// response it relays — all without decoding the variable-length answers.

// Head is the prefix every frame kind shares: the publication id and the
// client, in payload order.
type Head struct {
	Kind   byte
	ID     []byte
	Client []byte
}

// PeekHead parses a frame's header and leading id/client fields without
// touching the rest of the payload. It works on every frame kind.
func PeekHead(frame []byte) (Head, error) {
	k, err := FrameKind(frame)
	if err != nil {
		return Head{}, err
	}
	if k < KindQueryReq || k > KindInsertResp {
		return Head{}, ErrKind
	}
	n := int(binary.LittleEndian.Uint32(frame[4:8]))
	if n > len(frame)-HeaderSize {
		return Head{}, ErrTruncated
	}
	r := reader{b: frame[HeaderSize : HeaderSize+n], ok: true}
	h := Head{Kind: k}
	h.ID = r.bytes8()
	h.Client = r.bytes8()
	if !r.ok {
		return Head{}, ErrTruncated
	}
	return h, nil
}

// ledgerOffsets locates the fixed ledger block of a response frame:
// clientOff is the offset of the client str8's length byte, chargedOff the
// offset of the charged u64. Frame offsets, not payload offsets.
func ledgerOffsets(frame []byte) (clientOff, chargedOff int, err error) {
	k, err := FrameKind(frame)
	if err != nil {
		return 0, 0, err
	}
	if k != KindQueryResp && k != KindReconstructResp {
		return 0, 0, ErrKind
	}
	n := int(binary.LittleEndian.Uint32(frame[4:8]))
	if n > len(frame)-HeaderSize {
		return 0, 0, ErrTruncated
	}
	r := reader{b: frame[HeaderSize : HeaderSize+n], ok: true}
	r.bytes8() // id
	clientOff = HeaderSize + r.off
	r.bytes8() // client
	chargedOff = HeaderSize + r.off
	if !r.ok || r.remaining() < ledgerTail {
		return 0, 0, ErrTruncated
	}
	return clientOff, chargedOff, nil
}

// ledgerTail is the ledger's fixed part from charged on: charged,
// clientQueries and budgetRemaining u64s, flags, serveMicros.
const ledgerTail = 8 + 8 + 8 + 1 + 8

// AnswerBlock returns the bytes of a response frame after its ledger —
// the answer count and the answers or results, which the replica alone
// determines — without decoding them.
func AnswerBlock(frame []byte) ([]byte, error) {
	_, off, err := ledgerOffsets(frame)
	if err != nil {
		return nil, err
	}
	return frame[off+ledgerTail:], nil
}

// ReadLedger extracts the exposure fields from a response frame.
func ReadLedger(frame []byte) (Ledger, error) {
	_, off, err := ledgerOffsets(frame)
	if err != nil {
		return Ledger{}, err
	}
	return Ledger{
		Charged:         binary.LittleEndian.Uint64(frame[off:]),
		ClientQueries:   binary.LittleEndian.Uint64(frame[off+8:]),
		BudgetRemaining: binary.LittleEndian.Uint64(frame[off+16:]),
		ExposureWarning: frame[off+24]&flagWarning != 0,
		BudgetExact:     frame[off+24]&flagBudgetExact != 0,
	}, nil
}

// PatchLedger rewrites the client, cumulative exposure, remaining budget,
// and flags of a response frame to a router's authoritative values in led,
// leaving charged and the answers untouched. When the new client matches
// the frame's, the patch is in place and the input slice is returned;
// otherwise the frame is spliced into a fresh slice. The caller must own
// the frame either way.
func PatchLedger(frame []byte, client []byte, led Ledger) ([]byte, error) {
	clientOff, chargedOff, err := ledgerOffsets(frame)
	if err != nil {
		return nil, err
	}
	out := frame
	oldLen := int(frame[clientOff])
	if len(client) > 255 {
		client = client[:255]
	}
	if string(frame[clientOff+1:clientOff+1+oldLen]) != string(client) {
		// Splice: header + id + new client + everything from charged on.
		out = make([]byte, 0, len(frame)-oldLen+len(client))
		out = append(out, frame[:clientOff]...)
		out = appendBytes8(out, client)
		chargedOff = len(out)
		out = append(out, frame[clientOff+1+oldLen:]...)
		binary.LittleEndian.PutUint32(out[4:8], uint32(len(out)-HeaderSize))
	}
	binary.LittleEndian.PutUint64(out[chargedOff+8:], led.ClientQueries)
	binary.LittleEndian.PutUint64(out[chargedOff+16:], led.BudgetRemaining)
	if led.ExposureWarning {
		out[chargedOff+24] |= flagWarning
	} else {
		out[chargedOff+24] &^= flagWarning
	}
	if led.BudgetExact {
		out[chargedOff+24] |= flagBudgetExact
	} else {
		out[chargedOff+24] &^= flagBudgetExact
	}
	return out, nil
}
