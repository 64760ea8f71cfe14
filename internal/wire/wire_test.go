package wire

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenQueryReq and friends are the fixed representative messages behind
// the byte-exact fixtures in testdata/. Changing the wire format changes
// their encoding and fails TestGoldenFrames — which is the point: format
// drift must be deliberate (regenerate with -update and bump Version).
func goldenQueryReq() *QueryReq {
	return &QueryReq{
		ID:     []byte("census-sps"),
		Client: []byte("analyst-7"),
		Wait:   true,
		Queries: []Query{
			{SA: 3, Conds: []Cond{{Attr: 0, Value: 2}, {Attr: 4, Value: 17}}},
			{SA: 0, Conds: []Cond{{Attr: 2, Value: 999}}},
			{SA: 12, Conds: []Cond{{Attr: 1, Value: 0}, {Attr: 3, Value: 5}, {Attr: 5, Value: 1}}},
		},
	}
}

func goldenQueryResp() *QueryResp {
	return &QueryResp{
		ID:          []byte("census-sps"),
		Client:      []byte("analyst-7"),
		Ledger:      Ledger{Charged: 3, ClientQueries: 4242, BudgetRemaining: 1758, ExposureWarning: true, BudgetExact: true},
		ServeMicros: 1234,
		Answers: []Answer{
			{Count: 118, Estimate: 127.75},
			{Err: []byte("query: SA value 99 out of domain")},
			{Count: 0, Estimate: 0},
		},
	}
}

func goldenReconstructReq() *ReconstructReq {
	return &ReconstructReq{
		ID:     []byte("census-sps"),
		Client: []byte("adversary"),
		Clamp:  true,
		Subsets: [][]Cond{
			{{Attr: 0, Value: 1}, {Attr: 2, Value: 3}},
			{},
			{{Attr: 4, Value: 65535}},
		},
	}
}

func goldenReconstructResp() *ReconstructResp {
	return &ReconstructResp{
		ID:          []byte("census-sps"),
		Client:      []byte("adversary"),
		Ledger:      Ledger{Charged: 42, ClientQueries: 99, BudgetRemaining: UnlimitedBudget},
		ServeMicros: 77,
		Results: []RecResult{
			{Size: 311, Freqs: []float64{0.25, 0.5, 0, 0.25}},
			{Err: []byte("serve: attribute index 300 out of range")},
			{Size: 0},
		},
	}
}

func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		file   string
		encode func() []byte
		decode func([]byte) (any, error)
		want   any
	}{
		{
			"query_req.bin",
			func() []byte { return goldenQueryReq().Append(nil) },
			func(b []byte) (any, error) { var m QueryReq; err := m.Decode(b); return &m, err },
			goldenQueryReq(),
		},
		{
			"query_resp.bin",
			func() []byte { return goldenQueryResp().Append(nil) },
			func(b []byte) (any, error) { var m QueryResp; err := m.Decode(b); return &m, err },
			goldenQueryResp(),
		},
		{
			"reconstruct_req.bin",
			func() []byte { return goldenReconstructReq().Append(nil) },
			func(b []byte) (any, error) { var m ReconstructReq; err := m.Decode(b); return &m, err },
			goldenReconstructReq(),
		},
		{
			"reconstruct_resp.bin",
			func() []byte { return goldenReconstructResp().Append(nil) },
			func(b []byte) (any, error) { var m ReconstructResp; err := m.Decode(b); return &m, err },
			goldenReconstructResp(),
		},
		{
			"insert_req.bin",
			func() []byte { return goldenInsertReq().Append(nil) },
			func(b []byte) (any, error) { var m InsertReq; err := m.Decode(b); return &m, err },
			goldenInsertReq(),
		},
		{
			"insert_resp.bin",
			func() []byte { return goldenInsertResp().Append(nil) },
			func(b []byte) (any, error) { var m InsertResp; err := m.Decode(b); return &m, err },
			goldenInsertResp(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			got := tc.encode()
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/wire -run Golden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from golden %s:\n got %x\nwant %x\n"+
					"a deliberate format change must bump wire.Version and regenerate with -update",
					tc.file, got, want)
			}
			// The golden bytes also decode back to the source message —
			// fixture and codec agree in both directions.
			dec, err := tc.decode(want)
			if err != nil {
				t.Fatalf("decoding golden %s: %v", tc.file, err)
			}
			if !equivalentMessage(dec, tc.want) {
				t.Fatalf("golden %s decoded to\n%#v\nwant\n%#v", tc.file, dec, tc.want)
			}
		})
	}
}

// equivalentMessage compares a decoded message against its source, looking
// only at exported fields (decode scratch like arenas and spans differs by
// construction, and nil-vs-empty Conds on an empty subset is not
// observable).
func equivalentMessage(got, want any) bool {
	switch g := got.(type) {
	case *QueryReq:
		w := want.(*QueryReq)
		if !bytes.Equal(g.ID, w.ID) || !bytes.Equal(g.Client, w.Client) || g.Wait != w.Wait ||
			len(g.Queries) != len(w.Queries) {
			return false
		}
		for i := range g.Queries {
			if g.Queries[i].SA != w.Queries[i].SA || !condsEqual(g.Queries[i].Conds, w.Queries[i].Conds) {
				return false
			}
		}
		return true
	case *QueryResp:
		w := want.(*QueryResp)
		if !bytes.Equal(g.ID, w.ID) || !bytes.Equal(g.Client, w.Client) ||
			g.Ledger != w.Ledger || g.ServeMicros != w.ServeMicros || len(g.Answers) != len(w.Answers) {
			return false
		}
		for i := range g.Answers {
			ga, wa := g.Answers[i], w.Answers[i]
			if ga.Count != wa.Count || ga.Estimate != wa.Estimate || !bytes.Equal(ga.Err, wa.Err) {
				return false
			}
		}
		return true
	case *ReconstructReq:
		w := want.(*ReconstructReq)
		if !bytes.Equal(g.ID, w.ID) || !bytes.Equal(g.Client, w.Client) ||
			g.Clamp != w.Clamp || g.Wait != w.Wait || len(g.Subsets) != len(w.Subsets) {
			return false
		}
		for i := range g.Subsets {
			if !condsEqual(g.Subsets[i], w.Subsets[i]) {
				return false
			}
		}
		return true
	case *InsertReq:
		w := want.(*InsertReq)
		if !bytes.Equal(g.ID, w.ID) || !bytes.Equal(g.Client, w.Client) ||
			g.Wait != w.Wait || g.NAttrs != w.NAttrs || len(g.Records) != len(w.Records) {
			return false
		}
		for i := range g.Records {
			if len(g.Records[i]) != len(w.Records[i]) {
				return false
			}
			for j := range g.Records[i] {
				if g.Records[i][j] != w.Records[i][j] {
					return false
				}
			}
		}
		return true
	case *InsertResp:
		w := want.(*InsertResp)
		return bytes.Equal(g.ID, w.ID) && bytes.Equal(g.Client, w.Client) &&
			g.Inserted == w.Inserted && g.Trials == w.Trials &&
			g.Absorbed == w.Absorbed && g.TotalRecords == w.TotalRecords
	case *ReconstructResp:
		w := want.(*ReconstructResp)
		if !bytes.Equal(g.ID, w.ID) || !bytes.Equal(g.Client, w.Client) ||
			g.Ledger != w.Ledger || g.ServeMicros != w.ServeMicros || len(g.Results) != len(w.Results) {
			return false
		}
		for i := range g.Results {
			gr, wr := g.Results[i], w.Results[i]
			if gr.Size != wr.Size || !bytes.Equal(gr.Err, wr.Err) || len(gr.Freqs) != len(wr.Freqs) {
				return false
			}
			for j := range gr.Freqs {
				if math.Float64bits(gr.Freqs[j]) != math.Float64bits(wr.Freqs[j]) {
					return false
				}
			}
		}
		return true
	}
	return false
}

func condsEqual(a, b []Cond) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTripReusesState(t *testing.T) {
	// Decoding different messages through one reused struct must not leak
	// state between frames.
	var m QueryReq
	first := goldenQueryReq()
	second := &QueryReq{ID: []byte("x"), Queries: []Query{{SA: 1}}}
	for _, src := range []*QueryReq{first, second, first} {
		frame := src.Append(nil)
		if err := m.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if !equivalentMessage(&m, src) {
			t.Fatalf("reused decode diverged:\n got %#v\nwant %#v", m, src)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := goldenQueryReq().Append(nil)
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:HeaderSize-1], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrMagic},
		{"bad version", corrupt(func(b []byte) { b[2] = 9 }), ErrVersion},
		{"wrong kind", corrupt(func(b []byte) { b[3] = KindQueryResp }), ErrKind},
		{"truncated payload", valid[:len(valid)-3], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrTrailing},
		{"length overdeclared", corrupt(func(b []byte) { b[4] = 0xFF; b[5] = 0xFF }), ErrTruncated},
		{"count overdeclared", corrupt(func(b []byte) {
			// n sits after id(1+10) + client(1+9) + flags(1) in the payload.
			off := HeaderSize + 22
			b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
		}), ErrCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m QueryReq
			if err := m.Decode(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("bad answer tag", func(t *testing.T) {
		resp := goldenQueryResp().Append(nil)
		// First answer tag sits after the ledger block and count.
		off := HeaderSize + 1 + 10 + 1 + 9 + 8 + 8 + 8 + 1 + 8 + 4
		resp[off] = 7
		var m QueryResp
		if err := m.Decode(resp); !errors.Is(err, ErrFlags) {
			t.Fatalf("Decode = %v, want %v", err, ErrFlags)
		}
	})
}

// TestDecodeAllocs pins the zero-allocation steady state: once a reused
// decoder has grown its backing slices, decoding and encoding the same
// workload shape allocates nothing. Run under -race in CI.
func TestDecodeAllocs(t *testing.T) {
	reqFrame := goldenQueryReq().Append(nil)
	respFrame := goldenQueryResp().Append(nil)
	rreqFrame := goldenReconstructReq().Append(nil)
	rrespFrame := goldenReconstructResp().Append(nil)

	var req QueryReq
	var resp QueryResp
	var rreq ReconstructReq
	var rresp ReconstructResp
	// Warm: first decode grows the arenas.
	for _, err := range []error{req.Decode(reqFrame), resp.Decode(respFrame),
		rreq.Decode(rreqFrame), rresp.Decode(rrespFrame)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"decode QueryReq", func() { _ = req.Decode(reqFrame) }},
		{"decode QueryResp", func() { _ = resp.Decode(respFrame) }},
		{"decode ReconstructReq", func() { _ = rreq.Decode(rreqFrame) }},
		{"decode ReconstructResp", func() { _ = rresp.Decode(rrespFrame) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Fatalf("%s: %v allocs/op, want 0", tc.name, n)
			}
		})
	}

	// Encoding into a warmed buffer is also allocation-free.
	buf := make([]byte, 0, 4096)
	encCases := []struct {
		name string
		fn   func()
	}{
		{"encode QueryReq", func() { buf = goldenFixedQueryReq.Append(buf[:0]) }},
		{"encode QueryResp", func() { buf = goldenFixedQueryResp.Append(buf[:0]) }},
		{"encode ReconstructReq", func() { buf = goldenFixedReconReq.Append(buf[:0]) }},
		{"encode ReconstructResp", func() { buf = goldenFixedReconResp.Append(buf[:0]) }},
	}
	for _, tc := range encCases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Fatalf("%s: %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

// Package-level fixtures for the encode alloc runs: building them inside
// the measured closure would count the message construction itself.
var (
	goldenFixedQueryReq  = goldenQueryReq()
	goldenFixedQueryResp = goldenQueryResp()
	goldenFixedReconReq  = goldenReconstructReq()
	goldenFixedReconResp = goldenReconstructResp()
)

func TestPeekHead(t *testing.T) {
	frames := map[byte][]byte{
		KindQueryReq:        goldenQueryReq().Append(nil),
		KindQueryResp:       goldenQueryResp().Append(nil),
		KindReconstructReq:  goldenReconstructReq().Append(nil),
		KindReconstructResp: goldenReconstructResp().Append(nil),
		KindInsertReq:       goldenInsertReq().Append(nil),
		KindInsertResp:      goldenInsertResp().Append(nil),
	}
	for kind, frame := range frames {
		h, err := PeekHead(frame)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if h.Kind != kind || string(h.ID) != "census-sps" {
			t.Fatalf("kind %d: head = %+v", kind, h)
		}
	}
	if _, err := PeekHead([]byte("not a frame")); !errors.Is(err, ErrMagic) {
		t.Fatalf("PeekHead on garbage = %v, want %v", err, ErrMagic)
	}
	if _, err := PeekHead(append([]byte{magic0, magic1, Version, 9}, 0, 0, 0, 0)); !errors.Is(err, ErrKind) {
		t.Fatalf("PeekHead on kind 9 = %v, want %v", err, ErrKind)
	}
}

func TestReadAndPatchLedger(t *testing.T) {
	frame := goldenQueryResp().Append(nil)
	led, err := ReadLedger(frame)
	if err != nil {
		t.Fatal(err)
	}
	if led.Charged != 3 || led.ClientQueries != 4242 || led.BudgetRemaining != 1758 || !led.ExposureWarning || !led.BudgetExact {
		t.Fatalf("ReadLedger = %+v", led)
	}

	t.Run("in place", func(t *testing.T) {
		f := append([]byte(nil), frame...)
		out, err := PatchLedger(f, []byte("analyst-7"), Ledger{ClientQueries: 9000, BudgetRemaining: 500})
		if err != nil {
			t.Fatal(err)
		}
		if &out[0] != &f[0] {
			t.Fatal("same-client patch should be in place")
		}
		var m QueryResp
		if err := m.Decode(out); err != nil {
			t.Fatal(err)
		}
		if m.ClientQueries != 9000 || m.BudgetRemaining != 500 || m.ExposureWarning || m.BudgetExact || m.Charged != 3 {
			t.Fatalf("patched ledger = %+v", m.Ledger)
		}
		if len(m.Answers) != 3 || m.Answers[0].Count != 118 {
			t.Fatalf("answers disturbed: %+v", m.Answers)
		}
	})

	t.Run("splice client", func(t *testing.T) {
		f := append([]byte(nil), frame...)
		out, err := PatchLedger(f, []byte("a-much-longer-client-name"), Ledger{ClientQueries: 7, BudgetRemaining: UnlimitedBudget, ExposureWarning: true, BudgetExact: true})
		if err != nil {
			t.Fatal(err)
		}
		var m QueryResp
		if err := m.Decode(out); err != nil {
			t.Fatal(err)
		}
		if string(m.Client) != "a-much-longer-client-name" || m.ClientQueries != 7 ||
			m.BudgetRemaining != UnlimitedBudget || !m.BudgetExact || !m.ExposureWarning {
			t.Fatalf("spliced ledger = client %q %+v", m.Client, m.Ledger)
		}
		if len(m.Answers) != 3 || m.Answers[1].Err == nil {
			t.Fatalf("answers disturbed: %+v", m.Answers)
		}
		// The answer block is the frame's tail after the ledger, byte for
		// byte the same on both sides of a patch.
		want, err := AnswerBlock(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AnswerBlock(out); err != nil || !bytes.Equal(got, want) || !bytes.HasSuffix(frame, want) || want[0] != 3 {
			t.Fatalf("answer block %x (%v), want %x", got, err, want)
		}
	})

	t.Run("rejects requests", func(t *testing.T) {
		if _, err := ReadLedger(goldenQueryReq().Append(nil)); !errors.Is(err, ErrKind) {
			t.Fatalf("ReadLedger on request = %v, want %v", err, ErrKind)
		}
		if _, err := AnswerBlock(goldenQueryReq().Append(nil)); !errors.Is(err, ErrKind) {
			t.Fatalf("AnswerBlock on request = %v, want %v", err, ErrKind)
		}
	})
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*b2))
	}
	PutBuffer(b2)
	// Oversized buffers are dropped, not pooled.
	big := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&big)
}

func TestIsFrameAndKind(t *testing.T) {
	frame := goldenQueryReq().Append(nil)
	if !IsFrame(frame) {
		t.Fatal("IsFrame(valid) = false")
	}
	if IsFrame([]byte(`{"id":"x"}`)) {
		t.Fatal("IsFrame(json) = true")
	}
	k, err := FrameKind(frame)
	if err != nil || k != KindQueryReq {
		t.Fatalf("FrameKind = %d, %v", k, err)
	}
}

// TestRelease pins what a pooled decoder keeps after Release: no view
// into the last frame, and its arenas while they are within the bound
// PutBuffer applies, but not past it.
func TestRelease(t *testing.T) {
	var f QueryFrame
	var rr ReconstructReq
	var ir InsertReq
	decode := func(q *QueryReq, r *ReconstructReq, i *InsertReq) {
		t.Helper()
		for _, err := range []error{f.Parse(q.Append(nil)), rr.Decode(r.Append(nil)), ir.Decode(i.Append(nil))} {
			if err != nil {
				t.Fatal(err)
			}
		}
		f.Release()
		rr.Release()
		ir.Release()
		if f.ID != nil || f.Client != nil || f.p != nil || f.Len() != 0 || rr.ID != nil || len(rr.Subsets) != 0 ||
			ir.ID != nil || len(ir.Records) != 0 {
			t.Fatalf("views into the last frame kept: %+v %+v %+v", f, rr, ir)
		}
	}

	decode(goldenQueryReq(), goldenReconstructReq(), goldenInsertReq())
	if cap(f.offs) == 0 || cap(rr.Subsets) == 0 || cap(rr.conds) == 0 || cap(rr.spans) == 0 ||
		cap(ir.Records) == 0 || cap(ir.codes) == 0 {
		t.Fatalf("arenas within the bound dropped: %+v %+v %+v", f, rr, ir)
	}

	// Frames with more items than the bound holds offsets, subset views
	// or record views of.
	q := &QueryReq{Queries: make([]Query, maxPooledBuffer/4+1)}
	r := &ReconstructReq{Subsets: make([][]Cond, maxPooledBuffer/24+1)}
	i := &InsertReq{NAttrs: 1, Records: make([][]uint16, maxPooledBuffer/24+1)}
	decode(q, r, i)
	if f.offs != nil || rr.Subsets != nil || rr.conds != nil || rr.spans != nil || ir.Records != nil || ir.codes != nil {
		t.Fatalf("arenas past the bound kept: offsets %d, subsets %d, records %d", cap(f.offs), cap(rr.Subsets), cap(ir.Records))
	}
}
