package wire

// The /insert firehose frames. Records travel as fixed-width vectors of
// original value codes over the full schema (sensitive attribute included,
// at its schema position), so a record costs 2×nAttrs bytes instead of a
// JSON object of attribute and value labels — and decoding is a bounds
// check plus a u16 read per code, no label resolution at all. The frame
// leads with the same str8 id + str8 client prefix as every other kind, so
// PeekHead (and therefore the fleet router) handles insert frames without a
// dedicated path. Insert responses carry no ledger block: inserts charge no
// exposure, which is also why the router's settle path treats a ledger-less
// response as zero-charge.

// InsertReq is the binary body of POST /insert. ID and Client are zero-copy
// views into the decoded frame. The struct is reusable: Decode resets and
// refills it without allocating once its backing storage has grown to the
// workload's steady-state size.
//
//	insertReq := str8(id) str8(client) flags(u8) nAttrs(u8) n(u32) record×n
//	record    := code(u16)×nAttrs
type InsertReq struct {
	ID     []byte
	Client []byte
	Wait   bool
	// NAttrs is the full schema width every record is encoded at. Kept
	// explicit (rather than inferred from Records) so a decoded request
	// re-encodes byte-identically even when it carries zero records.
	NAttrs  int
	Records [][]uint16

	codes []uint16 // arena backing every record
}

// Append encodes the request as one frame appended to dst. Every record
// must be exactly NAttrs codes wide; shorter or longer records would decode
// as a different record boundary, so Append truncates or zero-pads to keep
// the frame self-consistent (callers construct records at schema width by
// construction).
func (m *InsertReq) Append(dst []byte) []byte {
	dst, ps := beginFrame(dst, KindInsertReq)
	dst = appendBytes8(dst, m.ID)
	dst = appendBytes8(dst, m.Client)
	var flags byte
	if m.Wait {
		flags |= flagWait
	}
	dst = append(dst, flags)
	dst = append(dst, byte(m.NAttrs))
	dst = appendU32(dst, uint32(len(m.Records)))
	for _, rec := range m.Records {
		for i := 0; i < m.NAttrs; i++ {
			var c uint16
			if i < len(rec) {
				c = rec[i]
			}
			dst = appendU16(dst, c)
		}
	}
	return endFrame(dst, ps)
}

// Release readies the request for a pool: it drops its views into the
// last frame, so the frame's buffer can be freed, and both of its arenas
// when either passes the bound PutBuffer applies.
func (m *InsertReq) Release() {
	if oversized(m.Records) || oversized(m.codes) {
		*m = InsertReq{}
		return
	}
	*m = InsertReq{Records: m.Records[:0], codes: m.codes[:0]}
}

// Decode parses a full frame. On error the struct contents are undefined;
// on success ID and Client alias the frame.
func (m *InsertReq) Decode(frame []byte) error {
	p, err := payload(frame, KindInsertReq)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	m.ID = r.bytes8()
	m.Client = r.bytes8()
	flags := r.u8()
	if flags&^byte(flagWait) != 0 {
		return ErrFlags
	}
	m.Wait = flags&flagWait != 0
	m.NAttrs = int(r.u8())
	n := int(r.u32())
	if !r.ok {
		return ErrTruncated
	}
	// Each record is exactly 2×NAttrs bytes; a declared count that cannot
	// fit is rejected before any allocation sized from it. Zero-width
	// records would make any count "fit", so they are rejected outright.
	if m.NAttrs == 0 {
		if n != 0 {
			return ErrCount
		}
	} else if n > r.remaining()/(2*m.NAttrs) {
		return ErrCount
	}
	m.Records = m.Records[:0]
	m.codes = m.codes[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < m.NAttrs; j++ {
			m.codes = append(m.codes, r.u16())
		}
	}
	if !r.ok {
		return ErrTruncated
	}
	if r.remaining() != 0 {
		return ErrTrailing
	}
	// Views are cut only now: the arena has stopped growing, so they stay
	// valid for the life of the decoded request.
	for i := 0; i < n; i++ {
		off := i * m.NAttrs
		m.Records = append(m.Records, m.codes[off:off+m.NAttrs:off+m.NAttrs])
	}
	return nil
}

// InsertResp is the binary body of a successful POST /insert, mirroring the
// JSON insertResponse counters.
//
//	insertResp := str8(id) str8(client) inserted(u32) trials(u32)
//	              absorbed(u32) totalRecords(u64)
type InsertResp struct {
	ID     []byte
	Client []byte
	// Inserted = Trials + Absorbed: records published by a fresh
	// perturbation trial vs. folded in by duplication (the streaming
	// analogue of SPS Scaling).
	Inserted uint32
	Trials   uint32
	Absorbed uint32
	// TotalRecords is the stream's raw record count after this batch.
	TotalRecords uint64
}

// Append encodes the response as one frame appended to dst.
func (m *InsertResp) Append(dst []byte) []byte {
	dst, ps := beginFrame(dst, KindInsertResp)
	dst = appendBytes8(dst, m.ID)
	dst = appendBytes8(dst, m.Client)
	dst = appendU32(dst, m.Inserted)
	dst = appendU32(dst, m.Trials)
	dst = appendU32(dst, m.Absorbed)
	dst = appendU64(dst, m.TotalRecords)
	return endFrame(dst, ps)
}

// Decode parses a full frame; byte-slice fields alias it.
func (m *InsertResp) Decode(frame []byte) error {
	p, err := payload(frame, KindInsertResp)
	if err != nil {
		return err
	}
	r := reader{b: p, ok: true}
	m.ID = r.bytes8()
	m.Client = r.bytes8()
	m.Inserted = r.u32()
	m.Trials = r.u32()
	m.Absorbed = r.u32()
	m.TotalRecords = r.u64()
	if !r.ok {
		return ErrTruncated
	}
	if r.remaining() != 0 {
		return ErrTrailing
	}
	return nil
}
