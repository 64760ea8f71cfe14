package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/stats"
)

// Publishing methods.
const (
	MethodSPS         = "sps"         // Sampling-Perturbing-Scaling (Section 5)
	MethodUP          = "up"          // uniform perturbation baseline (Section 6)
	MethodIncremental = "incremental" // streaming publisher (core.Incremental)
)

// Built-in dataset names (see internal/datagen); DatasetCSV loads a file.
const (
	DatasetAdult        = "adult"
	DatasetCensus       = "census"
	DatasetMedical      = "medical"
	DatasetMedicalColor = "medical-color"
	DatasetCSV          = "csv"
)

// PublishRequest is the body of POST /publish. The zero value of every
// optional field means "use the default"; Normalize resolves defaults, so
// two requests that spell the same publication differently share one cache
// entry.
type PublishRequest struct {
	// Dataset selects the data source: adult, census, medical,
	// medical-color, or csv (which reads Path with SA as the sensitive
	// attribute).
	Dataset string `json:"dataset"`
	// Size is the record count for the census/medical generators
	// (defaults: census 300,000 — the paper's default |D| — medical 10,000).
	Size int `json:"size,omitempty"`
	// DataSeed drives the synthetic generators (default 1).
	DataSeed int64 `json:"data_seed,omitempty"`
	// Path and SA configure the csv source.
	Path string `json:"path,omitempty"`
	SA   string `json:"sa,omitempty"`
	// Method is sps (default), up, or incremental.
	Method string `json:"method,omitempty"`
	// P, Lambda, Delta are the pipeline parameters (defaults 0.5/0.3/0.3,
	// the paper's Table 6 boldface).
	P      float64 `json:"p,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	Delta  float64 `json:"delta,omitempty"`
	// Significance is the chi-square generalization level; nil means the
	// default 0.05, an explicit 0 disables generalization. Incremental
	// publications never generalize (the streaming publisher works on the
	// raw schema), so the field is forced to 0 there.
	Significance *float64 `json:"significance,omitempty"`
	// Seed drives the publication randomness (default 1). Equal normalized
	// requests produce bit-identical publications.
	Seed int64 `json:"seed,omitempty"`
	// MaxDim is the marginal-index depth = the largest answerable query
	// dimensionality (default 3, the paper's d).
	MaxDim int `json:"max_dim,omitempty"`
	// Wait makes POST /publish block until the publication is built instead
	// of returning a pending id immediately. Not part of the cache key.
	Wait bool `json:"wait,omitempty"`
}

// MaxGeneratedSize caps the record count of the generated medical data
// sets. Publish requests arrive unauthenticated, so an uncapped size would
// let one request allocate arbitrary memory in the long-running server
// (census is separately capped at datagen.CensusMaxSize).
const MaxGeneratedSize = 2000000

// Normalize fills defaults in place and validates the request.
func (r *PublishRequest) Normalize() error {
	if r.Size < 0 {
		return fmt.Errorf("serve: size must be non-negative, got %d", r.Size)
	}
	switch r.Dataset {
	case DatasetAdult:
		r.Size = 0 // fixed 45,222 records
	case DatasetCensus:
		if r.Size == 0 {
			r.Size = 300000
		}
		if r.Size > datagen.CensusMaxSize {
			return fmt.Errorf("serve: census size %d exceeds the maximum %d", r.Size, datagen.CensusMaxSize)
		}
	case DatasetMedical, DatasetMedicalColor:
		if r.Size == 0 {
			r.Size = 10000
		}
		if r.Size > MaxGeneratedSize {
			return fmt.Errorf("serve: %s size %d exceeds the maximum %d", r.Dataset, r.Size, MaxGeneratedSize)
		}
	case DatasetCSV:
		if r.Path == "" || r.SA == "" {
			return fmt.Errorf("serve: csv dataset requires path and sa")
		}
		r.Size = 0
	default:
		return fmt.Errorf("serve: unknown dataset %q (want adult, census, medical, medical-color, or csv)", r.Dataset)
	}
	if r.DataSeed == 0 {
		r.DataSeed = 1
	}
	if r.Method == "" {
		r.Method = MethodSPS
	}
	switch r.Method {
	case MethodSPS, MethodUP, MethodIncremental:
	default:
		return fmt.Errorf("serve: unknown method %q (want sps, up, or incremental)", r.Method)
	}
	if r.P == 0 {
		r.P = core.DefaultParams.P
	}
	if r.Lambda == 0 {
		r.Lambda = core.DefaultParams.Lambda
	}
	if r.Delta == 0 {
		r.Delta = core.DefaultParams.Delta
	}
	if r.Significance == nil {
		sig := chimerge.DefaultSignificance
		r.Significance = &sig
	}
	if r.Method == MethodIncremental {
		zero := 0.0
		r.Significance = &zero
	}
	if *r.Significance < 0 || *r.Significance >= 1 {
		return fmt.Errorf("serve: significance must be in [0,1), got %v", *r.Significance)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.MaxDim == 0 {
		r.MaxDim = 3
	}
	if r.MaxDim < 1 || r.MaxDim > 6 {
		return fmt.Errorf("serve: max_dim must be in [1,6], got %d", r.MaxDim)
	}
	return r.Params().Validate()
}

// Params extracts the core pipeline parameters.
func (r *PublishRequest) Params() core.Params {
	return core.Params{P: r.P, Lambda: r.Lambda, Delta: r.Delta}
}

// Key is the canonical cache key of a normalized request: every field that
// influences the publication, none that doesn't (Wait is excluded).
func (r *PublishRequest) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d/%d", r.Dataset, r.Size, r.DataSeed)
	if r.Dataset == DatasetCSV {
		fmt.Fprintf(&b, "/%s/%s", r.Path, r.SA)
	}
	fmt.Fprintf(&b, "|%s|p=%g,l=%g,d=%g,sig=%g,seed=%d,dim=%d",
		r.Method, r.P, r.Lambda, r.Delta, *r.Significance, r.Seed, r.MaxDim)
	return b.String()
}

// sourceKey identifies just the raw table behind the request, so parameter
// sweeps over one dataset share a single generated table.
func (r *PublishRequest) sourceKey() string {
	if r.Dataset == DatasetCSV {
		return fmt.Sprintf("%s/%s/%s", r.Dataset, r.Path, r.SA)
	}
	return fmt.Sprintf("%s/%d/%d", r.Dataset, r.Size, r.DataSeed)
}

// IDForKey derives the short publication id from a cache key.
func IDForKey(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("pub-%012x", h.Sum64()&0xffffffffffff)
}

// Publication is an immutable served publication: the perturbed data's
// marginal index plus everything needed to answer and translate queries.
// It is built once (buildPublication), published via one atomic pointer
// store, and never mutated afterwards — refreshes and inserts swap in a
// fresh value.
type Publication struct {
	ID  string
	Key string
	Req PublishRequest // normalized request the publication answers for

	// Generation counts republications of the same key: 0 at first build,
	// +1 per POST /refresh, each drawing from a fresh RNG stream.
	Generation int
	CreatedAt  time.Time
	BuildTime  time.Duration

	// Meta summarizes the raw data and the enforcement run (internal/core).
	Meta core.Meta

	// Marg indexes the published groups for O(1) query answering; it is
	// immutable and safe for concurrent readers (see query.AnswerBatch).
	Marg *query.Marginals

	// Eng is the adversary engine over Marg: batched reconstructions and
	// count estimates for POST /reconstruct. Like Marg it is immutable and
	// shared by concurrent batches.
	Eng *reconstruct.Engine

	// Groups is the raw (pre-perturbation) personal groups of the
	// generalized data — the input of the Corollary 4 test, which POST
	// /audit sweeps to measure per-group tail probabilities. For
	// incremental publications it is a snapshot of the stream's raw
	// histograms as of the last build or insert.
	Groups *dataset.GroupSet

	// Orig is the pre-generalization schema — the vocabulary clients speak —
	// and mapping translates original value codes to generalized codes
	// (nil entries: attribute unchanged).
	Orig    *dataset.Schema
	mapping []*dataset.ValueMapping
}

// Digest returns a deterministic fingerprint of everything the publication
// serves: generation, enforcement metadata, the full marginal index, and the
// raw group snapshot. Two builds of the same normalized request, seed, and
// generation must produce equal digests at any PipelineWorkers setting —
// the bit-identity guarantee of the parallel cold path, which internal/sim
// re-checks continuously while traffic is in flight.
func (p *Publication) Digest() string {
	d := stats.NewDigest()
	d.Word(uint64(p.Generation))
	d.Word(uint64(p.Meta.Records))
	d.Word(uint64(p.Meta.RecordsOut))
	d.Word(uint64(p.Meta.Groups))
	d.Word(uint64(p.Meta.ViolatingGroups))
	d.Word(uint64(p.Meta.ViolatingRecords))
	d.Word(uint64(p.Meta.SampledGroups))
	d.Word(uint64(p.Meta.MaxGroupSize))
	d.Word(math.Float64bits(p.Meta.AvgGroupSize))
	d.Word(p.Marg.Checksum())
	if p.Groups != nil {
		d.Word(uint64(p.Groups.NumGroups()))
		for gi := range p.Groups.Groups {
			g := &p.Groups.Groups[gi]
			d.Word(uint64(g.Size))
			for _, k := range g.Key {
				d.Word(uint64(k))
			}
			for _, c := range g.SACounts {
				d.Word(uint64(c))
			}
		}
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// CondJSON is one equality condition in the wire format: the original
// attribute name and original value label.
type CondJSON struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// QueryJSON is one count query in the wire format (Eq. 11: conjunctive
// public-attribute conditions plus one sensitive value).
type QueryJSON struct {
	Conds []CondJSON `json:"conds"`
	SA    string     `json:"sa"`
}

// Resolve translates a wire query into engine codes. Condition values are
// resolved against the original schema and mapped through the
// generalization; values that only exist post-generalization (e.g. a merged
// label like "Edu-01+Edu-02") are accepted as written. The sensitive value
// is never generalized, so it resolves against the original SA domain.
func (p *Publication) Resolve(q QueryJSON) (query.Query, error) {
	conds, err := p.ResolveConds(q.Conds)
	if err != nil {
		return query.Query{}, err
	}
	sa, err := p.Orig.SAAttr().Code(q.SA)
	if err != nil {
		return query.Query{}, err
	}
	return query.Query{Conds: conds, SA: sa}, nil
}

// ResolveConds translates a wire condition set into engine codes — the
// condition half of Resolve, shared with the /reconstruct path, which has
// no sensitive value to resolve (it reconstructs the whole SA
// distribution).
func (p *Publication) ResolveConds(cs []CondJSON) ([]query.Cond, error) {
	out := make([]query.Cond, 0, len(cs))
	for _, c := range cs {
		ai, err := p.Orig.AttrIndex(c.Attr)
		if err != nil {
			return nil, err
		}
		if ai == p.Orig.SA {
			return nil, fmt.Errorf("serve: conditions may not reference the sensitive attribute %q", c.Attr)
		}
		code, err := p.Orig.Attrs[ai].Code(c.Value)
		if err == nil {
			if mp := p.mapping[ai]; mp != nil {
				code = mp.OldToNew[code]
			}
		} else if gc, gerr := p.Marg.Schema.Attrs[ai].Code(c.Value); gerr == nil {
			code = gc
		} else {
			return nil, err
		}
		out = append(out, query.Cond{Attr: ai, Value: code})
	}
	return out, nil
}

// MapConds is the binary-wire counterpart of ResolveConds: conditions
// arrive as original codes (attr = schema index, value = index into the
// attribute's original Values list) and are rewritten in place into engine
// codes through the generalization mapping. Every code is bounds-checked
// against the original schema before it indexes anything — a hostile frame
// can carry any uint16.
func (p *Publication) MapConds(conds []query.Cond) error {
	for i := range conds {
		c := &conds[i]
		if c.Attr < 0 || c.Attr >= p.Orig.NumAttrs() {
			return fmt.Errorf("serve: attribute index %d out of range (schema has %d attributes)",
				c.Attr, p.Orig.NumAttrs())
		}
		if c.Attr == p.Orig.SA {
			return fmt.Errorf("serve: conditions may not reference the sensitive attribute %q",
				p.Orig.Attrs[c.Attr].Name)
		}
		if int(c.Value) >= p.Orig.Attrs[c.Attr].Domain() {
			return fmt.Errorf("serve: value code %d out of domain for %q (domain %d)",
				c.Value, p.Orig.Attrs[c.Attr].Name, p.Orig.Attrs[c.Attr].Domain())
		}
		if mp := p.mapping[c.Attr]; mp != nil {
			c.Value = mp.OldToNew[c.Value]
		}
	}
	return nil
}

// MapSA validates a binary-wire sensitive-value code. The sensitive
// attribute is never generalized, so the original code is the engine code.
func (p *Publication) MapSA(sa uint16) error {
	if int(sa) >= p.Orig.SADomain() {
		return fmt.Errorf("serve: SA value code %d out of domain (domain %d)", sa, p.Orig.SADomain())
	}
	return nil
}
