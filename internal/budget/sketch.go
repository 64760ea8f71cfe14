package budget

import "math"

// The sketches index rows by independent mixes of one base hash per key.
// FNV-1a supplies the base; the SplitMix64 finalizer decorrelates rows.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	golden    = 0x9e3779b97f4a7c15
)

func hashKey(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rowIndex returns the column for depth row d under a power-of-two mask.
func rowIndex(base uint64, d int, mask uint64) uint64 {
	return mix(base+uint64(d+1)*golden) & mask
}

// winSketch is the sliding-window half of the counting state: one
// count-min slab of uint32 counters per window slot. Slots rotate as the
// clock crosses slot boundaries; expired slabs are zeroed wholesale, so a
// lookup never has to reason about staleness.
type winSketch struct {
	slots, depth int
	width        uint64 // power of two
	mask         uint64
	counts       []uint32 // slots × depth × width
	epochs       []int64  // epoch currently stored in each slot position
	// written marks slot positions charged since their slab was last
	// zeroed. Expiry clears only those: a fresh manager's first advance
	// expires every slot, and re-zeroing the slabs make just returned
	// would stall that first charge and fault in the whole sketch.
	written []bool
}

func newWinSketch(slots, depth int, width uint64) *winSketch {
	return &winSketch{
		slots:   slots,
		depth:   depth,
		width:   width,
		mask:    width - 1,
		counts:  make([]uint32, uint64(slots)*uint64(depth)*width),
		epochs:  make([]int64, slots),
		written: make([]bool, slots),
	}
}

// advance rotates the window to epoch e, zeroing every slot position whose
// resident epoch has fallen out of [e-slots+1, e].
func (w *winSketch) advance(e int64) {
	for pos := 0; pos < w.slots; pos++ {
		if w.epochs[pos] > e-int64(w.slots) && w.epochs[pos] <= e {
			continue
		}
		// This position will next hold the epoch congruent to pos.
		next := e - (e-int64(pos))%int64(w.slots)
		if next > e {
			next -= int64(w.slots)
		}
		if w.written[pos] {
			clear(w.slab(pos))
			w.written[pos] = false
		}
		w.epochs[pos] = next
	}
}

func (w *winSketch) slab(pos int) []uint32 {
	n := uint64(w.depth) * w.width
	return w.counts[uint64(pos)*n : (uint64(pos)+1)*n]
}

// add charges n into the slot holding epoch e. Counters saturate rather
// than wrap, preserving the never-undercount invariant.
func (w *winSketch) add(base uint64, e int64, n int64) {
	pos := int(e % int64(w.slots))
	w.written[pos] = true
	slab := w.slab(pos)
	for d := 0; d < w.depth; d++ {
		c := &slab[uint64(d)*w.width+rowIndex(base, d, w.mask)]
		if s := uint64(*c) + uint64(n); s > math.MaxUint32 {
			*c = math.MaxUint32
		} else {
			*c = uint32(s)
		}
	}
}

// slotEstimate returns the count-min estimate for one slot position.
func (w *winSketch) slotEstimate(base uint64, pos int) int64 {
	slab := w.slab(pos)
	est := uint32(math.MaxUint32)
	for d := 0; d < w.depth; d++ {
		if c := slab[uint64(d)*w.width+rowIndex(base, d, w.mask)]; c < est {
			est = c
		}
	}
	return int64(est)
}

// estimate sums the per-slot estimates: the windowed usage upper bound.
func (w *winSketch) estimate(base uint64) int64 {
	var sum int64
	for pos := 0; pos < w.slots; pos++ {
		sum += w.slotEstimate(base, pos)
	}
	return sum
}

// slotEstimates appends the per-slot estimates ordered oldest epoch first,
// for Retry-After computation. Only slots within the window are included.
func (w *winSketch) slotEstimates(base uint64, e int64, dst []int64) []int64 {
	for age := int64(w.slots) - 1; age >= 0; age-- {
		ep := e - age
		pos := int(((ep % int64(w.slots)) + int64(w.slots)) % int64(w.slots))
		if w.epochs[pos] != ep {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, w.slotEstimate(base, pos))
	}
	return dst
}

// cumSketch is the non-rotating cumulative half: uint64 counters so
// lifetime totals cannot saturate in practice.
type cumSketch struct {
	depth  int
	width  uint64
	mask   uint64
	counts []uint64 // depth × width
}

func newCumSketch(depth int, width uint64) *cumSketch {
	return &cumSketch{depth: depth, width: width, mask: width - 1,
		counts: make([]uint64, uint64(depth)*width)}
}

func (c *cumSketch) add(base uint64, n int64) {
	for d := 0; d < c.depth; d++ {
		c.counts[uint64(d)*c.width+rowIndex(base, d, c.mask)] += uint64(n)
	}
}

func (c *cumSketch) estimate(base uint64) int64 {
	est := uint64(math.MaxUint64)
	for d := 0; d < c.depth; d++ {
		if v := c.counts[uint64(d)*c.width+rowIndex(base, d, c.mask)]; v < est {
			est = v
		}
	}
	if est > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(est)
}

// pow2 rounds n up to the next power of two.
func pow2(n int) uint64 {
	w := uint64(1)
	for w < uint64(n) {
		w <<= 1
	}
	return w
}
