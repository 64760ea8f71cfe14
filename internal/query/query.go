package query

import (
	"fmt"

	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/par"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// Cond is one equality condition on a public attribute. It is an alias of
// reconstruct.Condition so Marginals satisfies reconstruct.Counter directly:
// the adversary engine consumes condition sets built for this index without
// any conversion, and vice versa.
type Cond = reconstruct.Condition

// Query is a conjunctive count query over public attributes plus one
// sensitive value (Eq. 11).
type Query struct {
	Conds []Cond
	SA    uint16
}

// String renders the query against a schema for diagnostics.
func (q Query) Format(s *dataset.Schema) string {
	out := ""
	for i, c := range q.Conds {
		if i > 0 {
			out += " ∧ "
		}
		out += fmt.Sprintf("%s=%s", s.Attrs[c.Attr].Name, s.Attrs[c.Attr].Label(c.Value))
	}
	if len(q.Conds) > 0 {
		out += " ∧ "
	}
	out += fmt.Sprintf("%s=%s", s.SAAttr().Name, s.SAAttr().Label(q.SA))
	return out
}

// marginal is one cube: counts over the cross product of a sorted
// public-attribute subset and SA. Its NA cells are entries [cell0,
// cell0+cells) of the owning Marginals' size plane and its counts entries
// [cell0·m, (cell0+cells)·m) of the counts arena, so one NA cell number
// addresses both planes of every generation.
type marginal struct {
	attrs []int // sorted NA attribute indices
	cell0 int   // first NA cell in the size plane
	cells int   // NA cells: the product of the attributes' domains
}

// Marginals answers conjunctive counts over a fixed schema from precomputed
// cubes of every public-attribute subset up to MaxDim attributes. Storage is
// two flat planes over the NA cells of all cubes, back to back: the counts
// arena holds each cell's m SA counts, and the size plane holds their sum
// |S*|. A query resolves its conditions to one NA cell by arithmetic (see
// locate), then reads one count and one size per generation, whatever m is.
type Marginals struct {
	Schema *dataset.Schema
	MaxDim int
	cubes  []marginal // in rank order, which is packed subset-key order (see newMarginals)
	arena  []int      // counts: NA cell k's SA histogram is arena[k·m : (k+1)·m]
	sizes  []int      // size plane: sizes[k] is the sum of NA cell k's counts
	total  int
	m      int // SA domain size

	// Dense cube addressing, a pure function of the schema shape and depth.
	addr  []attrAddr           // per schema attribute
	first [indexMaxDim + 1]int // first[d]: rank of the first d-attribute cube

	// deltas is the LSM-style generation stack: small immutable indexes over
	// inserted batches only, appended by WithDelta and folded back into one
	// arena by Compact. Every generation is built from the same schema and
	// depth, so all share one layout and an NA cell is the same number in
	// each — read paths sum the stack positionally. A Marginals with a
	// non-empty stack is still immutable: WithDelta copies, never mutates,
	// which is what lets the serving layer swap stacks behind an atomic
	// pointer while readers hold the old one.
	deltas []*Marginals
}

// attrAddr is one schema attribute's part in the dense cube addressing: its
// domain size and, for a public attribute at NA position p, the combinadic
// term C(p, i+1) it adds to a subset's rank as the subset's i-th smallest
// attribute. The SA attribute has no cube; its terms are -1.
type attrAddr struct {
	dom  int
	term [indexMaxDim]int
}

// indexMaxAttrs and indexMaxDim bound the schemas and depths an index
// accepts. The cube order every checksum folds is the packed subset-key
// order — one byte per attribute index, 0xFF padding the unused of eight
// slots, compared as an integer with slot 0 least significant — which needs
// attribute indices below 255 and at most eight attributes per subset.
const (
	indexMaxAttrs = 255
	indexMaxDim   = 8
)

// IndexLimitError reports a schema or index depth beyond the index's
// bounds: more attributes than fit a byte slot of the cube order, or more
// conditions per query than there are slots.
type IndexLimitError struct {
	Attrs  int // schema attribute count (0 if the limit hit was MaxDim)
	MaxDim int // effective index depth (0 if the limit hit was Attrs)
}

func (e *IndexLimitError) Error() string {
	if e.Attrs != 0 {
		return fmt.Sprintf("query: schema has %d attributes; the marginal index supports at most %d", e.Attrs, indexMaxAttrs-1)
	}
	return fmt.Sprintf("query: index depth %d exceeds the maximum %d", e.MaxDim, indexMaxDim)
}

// binom returns the binomial coefficient C(n, k), 0 when k > n.
func binom(n, k int) int {
	if k > n {
		return 0
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// newMarginals allocates the cube structure for every NA subset of size
// 1..maxDim, with zeroed planes.
//
// Cubes are placed at their combinadic rank. A d-subset whose attributes sit
// at NA positions p0 < … < p(d-1) has rank first[d] + Σ C(pi, i+1): the sum is
// its colex rank among the C(n, d) d-subsets, and first[d] counts the cubes
// of more than d attributes. That is exactly the packed subset-key order,
// which puts larger subsets first (their top used slot is below the 0xFF
// padding) and, within one size, compares the largest attribute first —
// colex order. So the arena layout, and every checksum over it, is the
// key-sorted one, and locate finds a cube with no search.
func newMarginals(schema *dataset.Schema, maxDim int) (*Marginals, error) {
	if maxDim < 1 {
		return nil, fmt.Errorf("query: maxDim must be at least 1, got %d", maxDim)
	}
	if schema.NumAttrs() >= indexMaxAttrs {
		return nil, &IndexLimitError{Attrs: schema.NumAttrs()}
	}
	na := schema.NAIndices()
	if maxDim > len(na) {
		maxDim = len(na)
	}
	if maxDim > indexMaxDim {
		return nil, &IndexLimitError{MaxDim: maxDim}
	}
	m := schema.SADomain()
	mg := &Marginals{Schema: schema, MaxDim: maxDim, m: m, addr: make([]attrAddr, schema.NumAttrs())}
	for a := range mg.addr {
		mg.addr[a].dom = schema.Attrs[a].Domain()
		for i := range mg.addr[a].term {
			mg.addr[a].term[i] = -1
		}
	}
	for p, a := range na {
		for i := 0; i < maxDim; i++ {
			mg.addr[a].term[i] = binom(p, i+1)
		}
	}
	slots := 0 // attrs entries over all cubes
	for d := maxDim; d >= 1; d-- {
		if d < maxDim {
			mg.first[d] = mg.first[d+1] + binom(len(na), d+1)
		}
		slots += d * binom(len(na), d)
	}
	mg.cubes = make([]marginal, mg.first[1]+len(na))
	back := make([]int, slots)
	var cur [indexMaxDim]int
	// place visits every subset extending cur[:d] with NA positions from
	// start on; colex is cur[:d]'s colex rank.
	var place func(start, d, colex int)
	place = func(start, d, colex int) {
		if d > 0 {
			cube := &mg.cubes[mg.first[d]+colex]
			cube.attrs, back = back[:d:d], back[d:]
			copy(cube.attrs, cur[:d])
		}
		if d == maxDim {
			return
		}
		for p := start; p < len(na); p++ {
			cur[d] = na[p]
			place(p+1, d+1, colex+mg.addr[na[p]].term[d])
		}
	}
	place(0, 0, 0)
	cells := 0
	for i := range mg.cubes {
		cube := &mg.cubes[i]
		cube.cell0, cube.cells = cells, 1
		for _, a := range cube.attrs {
			cube.cells *= mg.addr[a].dom
		}
		cells += cube.cells
	}
	// One allocation holds both planes.
	planes := make([]int, cells*(m+1))
	mg.arena, mg.sizes = planes[:cells*m:cells*m], planes[cells*m:]
	return mg, nil
}

// BuildMarginals scans the table once per cube and returns the query engine.
func BuildMarginals(t *dataset.Table, maxDim int) (*Marginals, error) {
	return BuildMarginalsParallel(t, maxDim, 1)
}

// BuildMarginalsParallel is BuildMarginals with the cube fill distributed
// across up to `workers` goroutines (0 = GOMAXPROCS): whole cubes are dealt
// to workers first and, when there are more workers than cubes, each cube's
// row range is sharded into per-shard partial planes summed after the join.
// Counts are integer sums, so the result is identical at any worker count.
func BuildMarginalsParallel(t *dataset.Table, maxDim, workers int) (*Marginals, error) {
	mg, err := newMarginals(t.Schema, maxDim)
	if err != nil {
		return nil, err
	}
	m := mg.m
	n := t.NumRows()
	mg.total = n
	sa, addr := t.Schema.SA, mg.addr
	mg.fill(n, workers, func(cube *marginal, counts, sizes []int, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.Row(r)
			cell := 0
			for _, a := range cube.attrs {
				cell = cell*addr[a].dom + int(row[a])
			}
			counts[cell*m+int(row[sa])]++
			sizes[cell]++
		}
	})
	return mg, nil
}

// BuildMarginalsFromGroups builds the same cubes from a group set — far
// cheaper than from rows when |G| ≪ |D|, which is how each published D* is
// indexed inside the experiment loops and the publication server.
func BuildMarginalsFromGroups(gs *dataset.GroupSet, maxDim int) (*Marginals, error) {
	return BuildMarginalsFromGroupsParallel(gs, maxDim, 1)
}

// BuildMarginalsFromGroupsParallel is BuildMarginalsFromGroups with the
// cube fill distributed across up to `workers` goroutines; the work unit is
// a (cube, group-range) shard exactly as in BuildMarginalsParallel, filling
// from the |G| group histograms instead of |D| rows.
func BuildMarginalsFromGroupsParallel(gs *dataset.GroupSet, maxDim, workers int) (*Marginals, error) {
	mg, err := newMarginals(gs.Schema, maxDim)
	if err != nil {
		return nil, err
	}
	m := mg.m
	na := gs.NAIndices()
	pos := make([]int, gs.Schema.NumAttrs()) // schema attr -> key position
	for i, a := range na {
		pos[a] = i
	}
	mg.total = gs.Total()
	addr := mg.addr
	mg.fill(gs.NumGroups(), workers, func(cube *marginal, counts, sizes []int, lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g := &gs.Groups[gi]
			cell := 0
			for _, a := range cube.attrs {
				cell = cell*addr[a].dom + int(g.Key[pos[a]])
			}
			base, size := cell*m, 0
			for sa, c := range g.SACounts {
				if c != 0 {
					counts[base+sa] += c
					size += c
				}
			}
			sizes[cell] += size
		}
	})
	return mg, nil
}

// planes returns a cube's views of the counts arena and the size plane.
func (mg *Marginals) planes(cube *marginal) (counts, sizes []int) {
	lo, hi := cube.cell0, cube.cell0+cube.cells
	return mg.arena[lo*mg.m : hi*mg.m], mg.sizes[lo:hi]
}

// fill distributes the cube fill across workers, dealing cubes in their
// deterministic arena order. fill must accumulate source items [lo, hi) of
// one cube into counts and sizes: either the cube's own planes or a private
// partial pair. With workers ≤ cubes, each cube is filled whole by one
// worker; with more workers than cubes, every cube's item range is split
// into shards with private partials that are summed — in shard order,
// though integer sums make any order equivalent — after the join.
func (mg *Marginals) fill(n, workers int, fill func(cube *marginal, counts, sizes []int, lo, hi int)) {
	cubes := mg.cubes
	if len(cubes) == 0 {
		return
	}
	workers = par.Clamp(len(cubes)*max(n, 1), workers)
	if workers <= 1 {
		for i := range cubes {
			counts, sizes := mg.planes(&cubes[i])
			fill(&cubes[i], counts, sizes, 0, n)
		}
		return
	}
	shards := 1
	if len(cubes) < workers {
		shards = (workers + len(cubes) - 1) / len(cubes)
	}
	if shards > n && n > 0 {
		shards = n
	}
	type item struct {
		cube    *marginal
		lo, hi  int
		partial []int // nil: fill the cube's planes; else cells·m counts, then cells sizes
	}
	items := make([]item, 0, len(cubes)*shards)
	stripe := (n + shards - 1) / shards
	for c := range cubes {
		cube := &cubes[c]
		for s := 0; s < shards; s++ {
			lo := s * stripe
			hi := min(lo+stripe, n)
			if lo >= hi && !(s == 0 && n == 0) {
				break
			}
			it := item{cube: cube, lo: lo, hi: hi}
			if shards > 1 {
				it.partial = make([]int, cube.cells*(mg.m+1))
			}
			items = append(items, it)
		}
	}
	par.Striped(len(items), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			it := &items[i]
			counts, sizes := mg.planes(it.cube)
			if it.partial != nil {
				k := it.cube.cells * mg.m
				counts, sizes = it.partial[:k], it.partial[k:]
			}
			fill(it.cube, counts, sizes, it.lo, it.hi)
		}
	})
	if shards > 1 {
		par.Striped(len(cubes), workers, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				cube := &cubes[c]
				counts, sizes := mg.planes(cube)
				for i := range items {
					if it := &items[i]; it.cube == cube {
						k := cube.cells * mg.m
						addInto(counts, it.partial[:k])
						addInto(sizes, it.partial[k:])
					}
				}
			}
		})
	}
}

// addInto adds src into dst positionally, skipping zeros.
func addInto(dst, src []int) {
	for i, v := range src {
		if v != 0 {
			dst[i] += v
		}
	}
}

// Total returns |D| for the indexed data, summed across every generation of
// the stack — a stacked index answers for base plus all deltas, so its total
// is the effective record count, not the base's.
func (mg *Marginals) Total() int {
	t := mg.total
	for _, d := range mg.deltas {
		t += d.total
	}
	return t
}

// Generations returns the height of the stack: 1 for a plain (or freshly
// compacted) index, 1+len(deltas) otherwise.
func (mg *Marginals) Generations() int { return 1 + len(mg.deltas) }

// WithDelta returns a new stacked index answering for mg plus the delta:
// mg's generations followed by the delta's, with mg itself untouched. The
// delta must have been built over the same schema shape and depth (same
// SA domain, same cube layout) — typically by BuildMarginalsFromGroups over
// only the inserted records — so the planes are positionally compatible.
// Each generation brings its own size plane, so |S*| stays one read per
// generation on the stack.
func (mg *Marginals) WithDelta(delta *Marginals) (*Marginals, error) {
	if err := mg.compatible(delta); err != nil {
		return nil, err
	}
	out := *mg
	out.deltas = make([]*Marginals, 0, len(mg.deltas)+delta.Generations())
	out.deltas = append(out.deltas, mg.deltas...)
	out.deltas = append(out.deltas, delta.base())
	out.deltas = append(out.deltas, delta.deltas...)
	return &out, nil
}

// base returns the delta's own generation 0 — the receiver if it is flat,
// a flattened shallow copy otherwise — so stacks never nest.
func (mg *Marginals) base() *Marginals {
	if len(mg.deltas) == 0 {
		return mg
	}
	out := *mg
	out.deltas = nil
	return &out
}

// compatible reports whether two indexes share one layout: same depth, same
// SA domain, same cube count and arena size. Layout is a pure function of
// (schema shape, maxDim) in newMarginals, so these checks pin positional
// compatibility without walking every cube.
func (mg *Marginals) compatible(d *Marginals) error {
	if d == nil {
		return fmt.Errorf("query: nil delta index")
	}
	if mg.MaxDim != d.MaxDim || mg.m != d.m ||
		len(mg.cubes) != len(d.cubes) || len(mg.arena) != len(d.arena) {
		return fmt.Errorf("query: delta index layout mismatch: depth %d/%d, %d/%d cubes, arena %d/%d",
			mg.MaxDim, d.MaxDim, len(mg.cubes), len(d.cubes), len(mg.arena), len(d.arena))
	}
	return nil
}

// Compact folds the generation stack into one flat index: fresh planes
// holding the positional sum of every generation's counts and sizes. The
// sum is integer addition over identical layouts, so a compacted index
// answers — and checksums — bit-identically to the stack it replaces,
// whatever order deltas arrived in. A flat index compacts to itself.
func (mg *Marginals) Compact() *Marginals {
	if len(mg.deltas) == 0 {
		return mg
	}
	out := *mg
	out.deltas = nil
	out.total = mg.Total()
	k := len(mg.arena)
	planes := make([]int, k+len(mg.sizes))
	out.arena, out.sizes = planes[:k:k], planes[k:]
	copy(out.arena, mg.arena)
	copy(out.sizes, mg.sizes)
	for _, d := range mg.deltas {
		addInto(out.arena, d.arena)
		addInto(out.sizes, d.sizes)
	}
	return &out
}

// Checksum returns a deterministic FNV-1a fingerprint of the whole index:
// depth, total, and every cube's attribute set, dimensions, and counts, in
// the deterministic cube order. Two Marginals built from the same
// publication agree bit for bit regardless of worker count, so equal
// checksums across PipelineWorkers settings is the serving layer's
// bit-identity invariant (checked continuously by internal/sim).
// The digest folds *effective* counts — each cell summed across the
// generation stack — so a stacked index and its compaction fingerprint
// identically. Compaction timing therefore never shows in a digest, which
// is what keeps fleet replica agreement and the sim's byte-identical
// summaries independent of when the background compactor runs. The size
// plane is derived from the counts and is not folded.
func (mg *Marginals) Checksum() uint64 {
	d := stats.NewDigest()
	d.Word(uint64(mg.MaxDim))
	d.Word(uint64(mg.Total()))
	for ci := range mg.cubes {
		cube := &mg.cubes[ci]
		d.Word(uint64(len(cube.attrs)))
		for _, a := range cube.attrs {
			d.Word(uint64(a))
			d.Word(uint64(mg.addr[a].dom))
		}
		for k := cube.cell0 * mg.m; k < (cube.cell0+cube.cells)*mg.m; k++ {
			d.Word(uint64(mg.count(k)))
		}
	}
	return d.Sum64()
}

// locate resolves a condition set to its NA cell: the cell's number in the
// size plane, which times m is the arena offset of its SA=0 count. Every
// generation of a stacked index shares one layout, so the same number
// addresses the matching cell in each delta. It is the one lookup behind
// every answering method, so it allocates nothing: conditions are sorted in
// a fixed stack buffer, and errors (the only allocating branches) fire only
// on invalid queries.
//
// The cube is found by arithmetic, not search: the sorted conditions' NA
// positions give the combinadic rank that newMarginals placed the cube at,
// and the condition values give the row-major cell within it. Attribute
// indices are range-checked before any table is read — the binary wire path
// carries raw uint16 attribute codes — and a condition on the SA attribute,
// which has no cube, is rejected rather than ranked.
func (mg *Marginals) locate(conds []Cond) (int, error) {
	n := len(conds)
	if n == 0 {
		return 0, fmt.Errorf("query: at least one NA condition is required")
	}
	if n > mg.MaxDim || n > indexMaxDim {
		return 0, fmt.Errorf("query: %d conditions exceed the indexed maximum %d", n, mg.MaxDim)
	}
	var buf [indexMaxDim]Cond
	copy(buf[:], conds)
	// Insertion sort by attribute: n ≤ 8, almost always already sorted.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && buf[j].Attr < buf[j-1].Attr; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	rank, public := mg.first[n], true
	for i := 0; i < n; i++ {
		a := buf[i].Attr
		if a < 0 || a >= len(mg.addr) {
			return 0, fmt.Errorf("query: attribute index %d out of schema range [0,%d)", a, len(mg.addr))
		}
		if i > 0 && a == buf[i-1].Attr {
			return 0, fmt.Errorf("query: duplicate condition on attribute %d", a)
		}
		t := mg.addr[a].term[i]
		public = public && t >= 0
		rank += t
	}
	if !public {
		return 0, fmt.Errorf("query: no cube for attribute set %v", condAttrs(buf[:n]))
	}
	cell := 0
	for i := 0; i < n; i++ {
		v, dom := int(buf[i].Value), mg.addr[buf[i].Attr].dom
		if v >= dom {
			return 0, fmt.Errorf("query: value %d out of domain for attribute %d", v, buf[i].Attr)
		}
		cell = cell*dom + v
	}
	return mg.cubes[rank].cell0 + cell, nil
}

// count returns the effective count at arena offset k: the base value plus
// the matching count of every delta generation. The stack is typically
// empty or a handful deep (the compactor bounds it).
func (mg *Marginals) count(k int) int {
	c := mg.arena[k]
	for _, d := range mg.deltas {
		c += d.arena[k]
	}
	return c
}

// size returns |S*| of NA cell k: one size-plane read per generation.
func (mg *Marginals) size(k int) int {
	s := mg.sizes[k]
	for _, d := range mg.deltas {
		s += d.sizes[k]
	}
	return s
}

// condAttrs extracts the attribute indices of a sorted condition slice for
// error messages.
func condAttrs(conds []Cond) []int {
	out := make([]int, len(conds))
	for i, c := range conds {
		out[i] = c.Attr
	}
	return out
}

// SADomain returns m, the sensitive-attribute domain size of the indexed
// schema (part of the reconstruct.Counter contract).
func (mg *Marginals) SADomain() int { return mg.m }

// SubsetCountsInto fills dst (length SADomain) with the SA histogram of the
// subset matching conds and returns the subset size — one locate, the
// indexed replacement for the O(n) observed-counts table scan. It completes
// the reconstruct.Counter contract, making every Marginals an adversary
// engine source.
func (mg *Marginals) SubsetCountsInto(conds []Cond, dst []int) (int, error) {
	k, err := mg.locate(conds)
	if err != nil {
		return 0, err
	}
	if len(dst) < mg.m {
		return 0, fmt.Errorf("query: subset histogram needs %d slots, got %d", mg.m, len(dst))
	}
	for sa := 0; sa < mg.m; sa++ {
		dst[sa] = mg.count(k*mg.m + sa)
	}
	return mg.size(k), nil
}

// Count answers the full query (NA conditions ∧ SA=sa).
func (mg *Marginals) Count(q Query) (int, error) {
	a := mg.Answer(q, 1)
	return a.Count, a.Err
}

// CountNA answers the NA-only part of the query (the subset S the estimator
// reconstructs over).
func (mg *Marginals) CountNA(conds []Cond) (int, error) {
	k, err := mg.locate(conds)
	if err != nil {
		return 0, err
	}
	return mg.size(k), nil
}

// Estimate computes est = |S*|·F' (Section 6.1) for the query against
// published data indexed by mg, where F' is the Lemma 2(ii) MLE computed
// from the observed count O* of sa within the matching subset S*.
// A query matching no published records estimates 0; at p = 1 the estimate
// is the count itself. It is the Estimate of the batch answer, bit for bit.
func (mg *Marginals) Estimate(q Query, p float64) (float64, error) {
	a := mg.Answer(q, p)
	return a.Estimate, a.Err
}
