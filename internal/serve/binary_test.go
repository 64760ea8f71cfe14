package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// postBinary posts a raw frame with the binary content type and returns the
// status, body, and response content type.
func postBinary(t *testing.T, url string, frame []byte) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Type")
}

// TestBinaryJSONEquivalence is the cross-encoding property test: seeded
// random condition batches served over the binary framing must answer
// bit-identically to the same batches served as JSON, and to the in-process
// AnswerBatch reference, at every worker width. The medical publication is
// generalized by chi-merge, so the test also covers the original-code →
// generalized-code mapping the binary path performs.
func TestBinaryJSONEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		s, ts := startServer(t, Config{QueryWorkers: workers, PipelineWorkers: workers})
		e, _, err := s.Publish(medicalRequest(), true)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := e.Publication()
		if err != nil {
			t.Fatal(err)
		}
		schema := pub.Orig // Gender(2) × Job(5) × Disease(10, SA)

		rng := rand.New(rand.NewSource(int64(workers)))
		for batch := 0; batch < 5; batch++ {
			n := 1 + rng.Intn(40)
			breq := wire.QueryReq{ID: []byte(pub.ID), Client: []byte("bin-client")}
			jreq := queryRequest{ID: pub.ID, Client: "json-client"}
			inline := make([]query.Query, n)
			for i := 0; i < n; i++ {
				var conds []wire.Cond
				var jconds []CondJSON
				for a := 0; a < schema.NumAttrs(); a++ {
					// Always keep the last NA: the engine requires at least
					// one condition, so the empty set is not in the space.
					if a == schema.SA || (len(conds) > 0 || a < schema.NumAttrs()-2) && rng.Intn(2) == 0 {
						continue
					}
					v := uint16(rng.Intn(schema.Attrs[a].Domain()))
					conds = append(conds, wire.Cond{Attr: a, Value: v})
					jconds = append(jconds, CondJSON{Attr: schema.Attrs[a].Name, Value: schema.Attrs[a].Label(v)})
				}
				sa := uint16(rng.Intn(schema.SADomain()))
				breq.Queries = append(breq.Queries, wire.Query{SA: sa, Conds: conds})
				jreq.Queries = append(jreq.Queries, QueryJSON{Conds: jconds, SA: schema.SAAttr().Label(sa)})
				// In-process reference: map a private copy of the original
				// codes exactly like the server does.
				cc := append([]query.Cond(nil), conds...)
				if err := pub.MapConds(cc); err != nil {
					t.Fatalf("workers=%d: mapping reference conds: %v", workers, err)
				}
				inline[i] = query.Query{Conds: cc, SA: sa}
			}

			status, body, ct := postBinary(t, ts.URL+"/query", breq.Append(nil))
			if status != http.StatusOK || ct != wire.ContentType {
				t.Fatalf("workers=%d: binary query returned %d (%s): %s", workers, status, ct, body)
			}
			var bresp wire.QueryResp
			if err := bresp.Decode(body); err != nil {
				t.Fatalf("workers=%d: decoding binary response: %v", workers, err)
			}
			var jresp QueryResponse
			if code := post(t, ts.URL+"/query", jreq, &jresp); code != http.StatusOK {
				t.Fatalf("workers=%d: json query returned %d", workers, code)
			}
			ref := pub.Marg.AnswerBatch(inline, pub.Req.P, workers)

			if len(bresp.Answers) != n || len(jresp.Answers) != n {
				t.Fatalf("workers=%d: %d binary / %d json answers for %d queries",
					workers, len(bresp.Answers), len(jresp.Answers), n)
			}
			for i := 0; i < n; i++ {
				ba, ja, ra := bresp.Answers[i], jresp.Answers[i], ref[i]
				if ba.Err != nil || ja.Error != "" || ra.Err != nil {
					t.Fatalf("workers=%d batch=%d query %d errored: bin=%q json=%q ref=%v",
						workers, batch, i, ba.Err, ja.Error, ra.Err)
				}
				if int(ba.Count) != ja.Count || int(ba.Count) != ra.Count {
					t.Fatalf("workers=%d batch=%d query %d: counts bin=%d json=%d ref=%d",
						workers, batch, i, ba.Count, ja.Count, ra.Count)
				}
				if math.Float64bits(ba.Estimate) != math.Float64bits(ja.Estimate) ||
					math.Float64bits(ba.Estimate) != math.Float64bits(ra.Estimate) {
					t.Fatalf("workers=%d batch=%d query %d: estimates bin=%v json=%v ref=%v",
						workers, batch, i, ba.Estimate, ja.Estimate, ra.Estimate)
				}
			}
			if bresp.Charged != uint64(n) {
				t.Fatalf("workers=%d: binary charged %d for %d queries", workers, bresp.Charged, n)
			}
		}
	}
}

// TestBinaryReconstructEquivalence is the /reconstruct twin: binary dense
// frequency vectors (indexed by sensitive-value code) must carry the same
// bits as the JSON label-keyed maps, for raw and clamped estimates.
func TestBinaryReconstructEquivalence(t *testing.T) {
	s, ts := startServer(t, Config{})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	schema := pub.Orig
	sa := schema.SAAttr()

	rng := rand.New(rand.NewSource(7))
	for _, clamp := range []bool{false, true} {
		n := 8
		breq := wire.ReconstructReq{ID: []byte(pub.ID), Client: []byte("bin-adv"), Clamp: clamp}
		jreq := reconstructRequest{ID: pub.ID, Client: "json-adv", Clamp: clamp}
		for i := 0; i < n; i++ {
			var conds []wire.Cond
			var jconds []CondJSON
			for a := 0; a < schema.NumAttrs(); a++ {
				if a == schema.SA || (len(conds) > 0 || a < schema.NumAttrs()-2) && rng.Intn(2) == 0 {
					continue
				}
				v := uint16(rng.Intn(schema.Attrs[a].Domain()))
				conds = append(conds, wire.Cond{Attr: a, Value: v})
				jconds = append(jconds, CondJSON{Attr: schema.Attrs[a].Name, Value: schema.Attrs[a].Label(v)})
			}
			breq.Subsets = append(breq.Subsets, conds)
			jreq.Subsets = append(jreq.Subsets, jconds)
		}

		status, body, _ := postBinary(t, ts.URL+"/reconstruct", breq.Append(nil))
		if status != http.StatusOK {
			t.Fatalf("clamp=%v: binary reconstruct returned %d: %s", clamp, status, body)
		}
		var bresp wire.ReconstructResp
		if err := bresp.Decode(body); err != nil {
			t.Fatalf("clamp=%v: decoding binary response: %v", clamp, err)
		}
		var jresp ReconstructResponse
		if code := post(t, ts.URL+"/reconstruct", jreq, &jresp); code != http.StatusOK {
			t.Fatalf("clamp=%v: json reconstruct returned %d", clamp, code)
		}
		if len(bresp.Results) != n || len(jresp.Results) != n {
			t.Fatalf("clamp=%v: %d binary / %d json results", clamp, len(bresp.Results), len(jresp.Results))
		}
		for i := 0; i < n; i++ {
			br, jr := bresp.Results[i], jresp.Results[i]
			if br.Err != nil || jr.Error != "" {
				t.Fatalf("clamp=%v subset %d errored: bin=%q json=%q", clamp, i, br.Err, jr.Error)
			}
			if int(br.Size) != jr.Size {
				t.Fatalf("clamp=%v subset %d: size bin=%d json=%d", clamp, i, br.Size, jr.Size)
			}
			for v, f := range br.Freqs {
				if math.Float64bits(f) != math.Float64bits(jr.Freqs[sa.Label(uint16(v))]) {
					t.Fatalf("clamp=%v subset %d value %d: freq bin=%v json=%v",
						clamp, i, v, f, jr.Freqs[sa.Label(uint16(v))])
				}
			}
		}
		if bresp.Charged != uint64(n)*uint64(pub.Marg.SADomain()) {
			t.Fatalf("clamp=%v: binary charged %d", clamp, bresp.Charged)
		}
	}
}

// TestBinaryErrorPaths drives malformed and hostile frames through both
// binary endpoints: every rejection must be the typed JSON ErrorBody
// envelope with the right code and status — never a panic, a hang, or a
// bare failure the fleet's taxonomy cannot classify.
func TestBinaryErrorPaths(t *testing.T) {
	s, ts := startServer(t, Config{MaxBatch: 5})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}

	valid := func(id string, qn int) []byte {
		m := wire.QueryReq{ID: []byte(id)}
		for i := 0; i < qn; i++ {
			m.Queries = append(m.Queries, wire.Query{SA: 0, Conds: []wire.Cond{{Attr: 1, Value: 0}}})
		}
		return m.Append(nil)
	}
	corrupt := func(frame []byte, off int, b byte) []byte {
		out := append([]byte(nil), frame...)
		out[off] = b
		return out
	}
	rvalid := func(id string, sn int) []byte {
		m := wire.ReconstructReq{ID: []byte(id)}
		for i := 0; i < sn; i++ {
			m.Subsets = append(m.Subsets, []wire.Cond{{Attr: 1, Value: 0}})
		}
		return m.Append(nil)
	}

	ok := valid(e.ID(), 1)
	cases := []struct {
		name     string
		path     string
		frame    []byte
		wantCode int
		want     ErrorCode
	}{
		{"garbage", "/query", []byte("not a frame at all"), http.StatusBadRequest, CodeBadRequest},
		{"empty body", "/query", nil, http.StatusBadRequest, CodeBadRequest},
		{"bad magic", "/query", corrupt(ok, 0, 'X'), http.StatusBadRequest, CodeBadRequest},
		{"bad version", "/query", corrupt(ok, 2, 99), http.StatusBadRequest, CodeBadRequest},
		{"wrong kind", "/query", corrupt(ok, 3, wire.KindQueryResp), http.StatusBadRequest, CodeBadRequest},
		{"truncated", "/query", ok[:len(ok)-3], http.StatusBadRequest, CodeBadRequest},
		{"trailing bytes", "/query", append(append([]byte(nil), ok...), 0xEE), http.StatusBadRequest, CodeBadRequest},
		// Offset 12 is the low byte of the query count for an 8-byte id
		// (header 8 + str8 id 9 + str8 client 1 + flags 1 ... counts from 8:
		// id at 8, client at 8+1+len(id)).
		{"count overdeclared", "/query", corrupt(ok, wire.HeaderSize+1+len(e.ID())+1+1, 200), http.StatusBadRequest, CodeBadRequest},
		{"undefined flag bits", "/query", corrupt(ok, wire.HeaderSize+1+len(e.ID())+1, 0x80), http.StatusBadRequest, CodeBadRequest},
		{"empty batch", "/query", valid(e.ID(), 0), http.StatusBadRequest, CodeBadRequest},
		{"oversized batch", "/query", valid(e.ID(), 6), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"unknown publication", "/query", valid("pub-none", 1), http.StatusNotFound, CodeNotFound},
		{"reconstruct garbage", "/reconstruct", []byte{0xde, 0xad}, http.StatusBadRequest, CodeBadRequest},
		{"reconstruct wrong kind", "/reconstruct", ok, http.StatusBadRequest, CodeBadRequest},
		{"reconstruct empty batch", "/reconstruct", rvalid(e.ID(), 0), http.StatusBadRequest, CodeBadRequest},
		{"reconstruct oversized", "/reconstruct", rvalid(e.ID(), 6), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"reconstruct unknown publication", "/reconstruct", rvalid("pub-none", 1), http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		status, body, ct := postBinary(t, ts.URL+tc.path, tc.frame)
		if status != tc.wantCode {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, status, tc.wantCode, body)
			continue
		}
		if ct != "application/json" {
			t.Errorf("%s: error content type %q, want JSON envelope", tc.name, ct)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: error body is not an ErrorBody: %v (%q)", tc.name, err, body)
			continue
		}
		if eb.Code != tc.want {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Code, tc.want)
		}
	}

	// Per-query code failures are per-query, not batch-fatal: out-of-range
	// attribute, SA-referencing condition, out-of-domain value and SA all
	// answer inside a 200 frame, alongside a healthy query.
	breq := wire.QueryReq{ID: []byte(e.ID())}
	breq.Queries = []wire.Query{
		{SA: 0, Conds: []wire.Cond{{Attr: 1, Value: 0}}},     // healthy
		{SA: 0, Conds: []wire.Cond{{Attr: 9, Value: 0}}},     // attr out of range
		{SA: 0, Conds: []wire.Cond{{Attr: 2, Value: 0}}},     // condition on the SA
		{SA: 0, Conds: []wire.Cond{{Attr: 1, Value: 500}}},   // value out of domain
		{SA: 60000, Conds: []wire.Cond{{Attr: 1, Value: 0}}}, // SA out of domain
	}
	status, body, _ := postBinary(t, ts.URL+"/query", breq.Append(nil))
	if status != http.StatusOK {
		t.Fatalf("per-query error batch returned %d: %s", status, body)
	}
	var bresp wire.QueryResp
	if err := bresp.Decode(body); err != nil {
		t.Fatal(err)
	}
	if bresp.Answers[0].Err != nil {
		t.Fatalf("healthy query errored: %q", bresp.Answers[0].Err)
	}
	for i := 1; i < len(bresp.Answers); i++ {
		if bresp.Answers[i].Err == nil {
			t.Fatalf("invalid query %d did not error", i)
		}
	}
	if got := string(bresp.Answers[1].Err); !strings.Contains(got, "attribute index 9 out of range") {
		t.Fatalf("out-of-range attribute answered %q, want its mapping error", got)
	}
	if st := s.Stats(); st.QueryErrors != 4 {
		t.Fatalf("query errors %d, want 4", st.QueryErrors)
	}

	// Method gate: a GET with the binary content type is still a 405.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET with binary content type returned %d, want 405", resp.StatusCode)
	}
}

// TestBinaryExposureSharedWithJSON checks the two encodings charge one
// ledger: a client's cumulative exposure spans both.
func TestBinaryExposureSharedWithJSON(t *testing.T) {
	s, ts := startServer(t, Config{ExposureWarn: 5})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	var jresp QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Client: "carol", Queries: []QueryJSON{
		{Conds: []CondJSON{{Attr: "Job", Value: "Clerk"}}, SA: "Flu"},
		{Conds: []CondJSON{{Attr: "Job", Value: "Clerk"}}, SA: "Flu"},
		{Conds: []CondJSON{{Attr: "Job", Value: "Clerk"}}, SA: "Flu"},
	}}, &jresp)
	if jresp.ClientQueries != 3 || jresp.ExposureWarning {
		t.Fatalf("after 3 JSON queries: %+v", jresp)
	}

	breq := wire.QueryReq{ID: []byte(e.ID()), Client: []byte("carol")}
	for i := 0; i < 3; i++ {
		breq.Queries = append(breq.Queries, wire.Query{SA: 0, Conds: []wire.Cond{{Attr: 1, Value: 0}}})
	}
	status, body, _ := postBinary(t, ts.URL+"/query", breq.Append(nil))
	if status != http.StatusOK {
		t.Fatalf("binary query returned %d: %s", status, body)
	}
	var bresp wire.QueryResp
	if err := bresp.Decode(body); err != nil {
		t.Fatal(err)
	}
	if bresp.ClientQueries != 6 || !bresp.ExposureWarning {
		t.Fatalf("after 3 more binary queries: queries=%d warning=%v", bresp.ClientQueries, bresp.ExposureWarning)
	}
	if string(bresp.Client) != "carol" {
		t.Fatalf("binary response client %q", bresp.Client)
	}
}

// discardWriter is a reusable http.ResponseWriter that drops the body, so
// the allocation test below counts the handler's allocations alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestBinaryQueryHandlerAllocs pins the binary /query steady state through
// Server.Handler(): with a reused request and a discarding writer, a batch
// allocates at most a handful of times — none per query. The bounds are
// per request, at one worker and at two (where the one fan-out adds its
// goroutines).
func TestBinaryQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	for _, tc := range []struct {
		workers int
		max     float64
	}{{1, 4}, {2, 16}} {
		s := New(Config{QueryWorkers: tc.workers, BudgetQuota: -1})
		e, _, err := s.Publish(medicalRequest(), true)
		if err != nil {
			t.Fatal(err)
		}
		req := wire.QueryReq{ID: []byte(e.ID()), Client: []byte("alloc-client")}
		for i := 0; i < 64; i++ {
			req.Queries = append(req.Queries, wire.Query{SA: uint16(i % 10), Conds: []wire.Cond{{Attr: 1, Value: uint16(i % 5)}}})
		}
		frame := req.Append(nil)
		body := bytes.NewReader(frame)
		hr, err := http.NewRequest(http.MethodPost, "/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", wire.ContentType)
		hr.Body = io.NopCloser(body)
		w := &discardWriter{h: make(http.Header)}
		h := s.Handler()
		run := func() {
			body.Reset(frame)
			h.ServeHTTP(w, hr)
		}
		for i := 0; i < 10; i++ {
			run()
		}
		if got := testing.AllocsPerRun(200, run); got > tc.max {
			t.Errorf("QueryWorkers %d: %v allocs per binary /query, want <= %v", tc.workers, got, tc.max)
		}
	}
}
