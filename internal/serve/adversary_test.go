package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/reconpriv/reconpriv/internal/query"
	"github.com/reconpriv/reconpriv/internal/reconstruct"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// publishMedical publishes the standard test publication and returns its
// entry.
func publishMedical(t *testing.T, s *Server) *Publication {
	t.Helper()
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

func TestServedReconstructMatchesInlineEngine(t *testing.T) {
	// Golden test for /reconstruct: served reconstructions must equal the
	// inline engine on the same publication, label for label.
	s, ts := startServer(t, Config{})
	pub := publishMedical(t, s)

	subsets := [][]CondJSON{
		{{Attr: "Gender", Value: "Male"}},
		{{Attr: "Gender", Value: "Female"}, {Attr: "Job", Value: pub.Orig.Attrs[1].Values[0]}},
		{{Attr: "Gender", Value: "NotAGender"}}, // per-subset error
	}
	var resp ReconstructResponse
	if code := post(t, ts.URL+"/reconstruct", reconstructRequest{ID: pub.ID, Subsets: subsets}, &resp); code != http.StatusOK {
		t.Fatalf("reconstruct returned %d", code)
	}
	if len(resp.Results) != len(subsets) {
		t.Fatalf("answered %d of %d subsets", len(resp.Results), len(subsets))
	}
	if resp.Results[2].Error == "" {
		t.Error("bad label should produce a per-subset error")
	}
	for i := 0; i < 2; i++ {
		conds, err := pub.ResolveConds(subsets[i])
		if err != nil {
			t.Fatal(err)
		}
		want := pub.Eng.ReconstructBatch([][]query.Cond{conds}, reconstruct.BatchOptions{})[0]
		got := resp.Results[i]
		if got.Error != "" || got.Size != want.Size {
			t.Fatalf("subset %d: served %+v, inline size %d", i, got, want.Size)
		}
		sa := pub.Orig.SAAttr()
		for v, f := range want.Freqs {
			if d := math.Abs(got.Freqs[sa.Label(uint16(v))] - f); d > 1e-12 {
				t.Fatalf("subset %d value %d: served %v, inline %v", i, v, got.Freqs[sa.Label(uint16(v))], f)
			}
		}
	}

	// Clamped responses must be genuine distributions.
	var clamped ReconstructResponse
	post(t, ts.URL+"/reconstruct", reconstructRequest{ID: pub.ID, Subsets: subsets[:2], Clamp: true}, &clamped)
	for i, r := range clamped.Results {
		sum := 0.0
		for _, f := range r.Freqs {
			if f < 0 {
				t.Fatalf("subset %d: clamped entry negative", i)
			}
			sum += f
		}
		if r.Size > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("subset %d: clamped freqs sum to %v", i, sum)
		}
	}
}

func TestServedReconstructExposureCharging(t *testing.T) {
	s, ts := startServer(t, Config{})
	pub := publishMedical(t, s)
	m := pub.Marg.SADomain()

	var resp ReconstructResponse
	req := reconstructRequest{ID: pub.ID, Client: "attacker", Subsets: [][]CondJSON{
		{{Attr: "Gender", Value: "Male"}},
		{{Attr: "Gender", Value: "Female"}},
	}}
	post(t, ts.URL+"/reconstruct", req, &resp)
	if want := int64(2 * m); resp.ClientQueries != want {
		t.Errorf("2 reconstructions charged %d queries, want %d (m = %d per subset)", resp.ClientQueries, want, m)
	}
	// The counter is shared with /query: a reconstruction batch counts
	// toward the same exposure budget.
	var qresp QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: pub.ID, Client: "attacker", Queries: []QueryJSON{
		{Conds: []CondJSON{{Attr: "Gender", Value: "Male"}}, SA: pub.Orig.SAAttr().Values[0]},
	}}, &qresp)
	if want := int64(2*m) + 1; qresp.ClientQueries != want {
		t.Errorf("cumulative exposure = %d, want %d", qresp.ClientQueries, want)
	}
	st := s.Stats()
	if st.ReconstructBatches != 1 || st.Reconstructions != 2 {
		t.Errorf("stats: batches %d reconstructions %d", st.ReconstructBatches, st.Reconstructions)
	}
}

func TestServedReconstructValidation(t *testing.T) {
	s, ts := startServer(t, Config{MaxBatch: 2})
	pub := publishMedical(t, s)
	if code := post(t, ts.URL+"/reconstruct", reconstructRequest{ID: pub.ID}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch returned %d", code)
	}
	big := reconstructRequest{ID: pub.ID, Subsets: [][]CondJSON{
		{{Attr: "Gender", Value: "Male"}}, {{Attr: "Gender", Value: "Male"}}, {{Attr: "Gender", Value: "Male"}},
	}}
	if code := post(t, ts.URL+"/reconstruct", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch returned %d", code)
	}
	if code := post(t, ts.URL+"/reconstruct", reconstructRequest{ID: "pub-missing", Subsets: big.Subsets[:1]}, nil); code != http.StatusNotFound {
		t.Errorf("unknown id returned %d", code)
	}

	// A subset that fails resolution is answered with its resolution error
	// inside a 200, in either encoding, and its neighbour is unaffected.
	var resp ReconstructResponse
	post(t, ts.URL+"/reconstruct", reconstructRequest{ID: pub.ID, Subsets: [][]CondJSON{
		{{Attr: "Gender", Value: "Male"}}, {{Attr: "Gender", Value: "Martian"}},
	}}, &resp)
	if len(resp.Results) != 2 || resp.Results[0].Error != "" || !strings.Contains(resp.Results[1].Error, `"Martian"`) {
		t.Errorf("json per-subset results: %+v", resp.Results)
	}
	breq := wire.ReconstructReq{ID: []byte(pub.ID), Subsets: [][]wire.Cond{{{Attr: 0, Value: 0}}, {{Attr: 9, Value: 0}}}}
	_, body, _ := postBinary(t, ts.URL+"/reconstruct", breq.Append(nil))
	var bresp wire.ReconstructResp
	if err := bresp.Decode(body); err != nil {
		t.Fatalf("decoding binary response %q: %v", body, err)
	}
	if len(bresp.Results) != 2 || bresp.Results[0].Err != nil ||
		!strings.Contains(string(bresp.Results[1].Err), "attribute index 9 out of range") {
		t.Errorf("binary per-subset results: %+v", bresp.Results)
	}
}

func TestServedAuditCachedAndDeterministic(t *testing.T) {
	s, ts := startServer(t, Config{})
	pub := publishMedical(t, s)

	var first auditResponse
	if code := post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 200, Top: 5}, &first); code != http.StatusOK {
		t.Fatalf("audit returned %d", code)
	}
	if first.Cached {
		t.Error("first audit should not be cached")
	}
	if first.GroupsAudited == 0 || len(first.Top) == 0 || len(first.Top) > 5 {
		t.Fatalf("audit shape wrong: %+v", first)
	}
	if first.Method != MethodSPS || !first.SPS {
		t.Errorf("audit method = %q sps=%v", first.Method, first.SPS)
	}
	var second auditResponse
	post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 200, Top: 5}, &second)
	if !second.Cached {
		t.Error("second identical audit should be served from cache")
	}
	second.Cached = first.Cached
	if !reflect.DeepEqual(first, second) {
		t.Error("cached audit differs from the original")
	}
	st := s.Stats()
	if st.Audits != 1 || st.AuditCacheHits != 1 {
		t.Errorf("stats: audits %d cache hits %d, want 1 and 1", st.Audits, st.AuditCacheHits)
	}

	// Top is a presentation knob, not part of the cache identity: a wider
	// request against the same sweep is still a cache hit and gets its own
	// row count from the shared full-depth result.
	var wider auditResponse
	post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 200, Top: 100}, &wider)
	if !wider.Cached {
		t.Error("different top should still hit the cache")
	}
	wantRows := wider.GroupsAudited
	if wantRows > 100 {
		wantRows = 100
	}
	if len(wider.Top) != wantRows {
		t.Errorf("top=100 returned %d rows, want %d", len(wider.Top), wantRows)
	}
	if len(wider.Top) <= len(first.Top) && wider.GroupsAudited > 5 {
		t.Errorf("wider request returned %d rows, no more than the first's %d", len(wider.Top), len(first.Top))
	}

	// Different parameters are a different audit, not a cache hit.
	var third auditResponse
	post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 100, Top: 5}, &third)
	if third.Cached {
		t.Error("different trials should run a fresh sweep")
	}
	// Bound violations should be zero: plain-perturbed groups must respect
	// their Chernoff bounds (Corollary 3).
	if first.BoundViolations != 0 {
		t.Errorf("audit reports %d bound violations", first.BoundViolations)
	}
}

func TestServedAuditConcurrentSingleflight(t *testing.T) {
	s, ts := startServer(t, Config{})
	pub := publishMedical(t, s)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]auditResponse, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 150}, &results[i])
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		a, b := results[0], results[i]
		a.Cached, b.Cached = false, false
		a.AuditMS, b.AuditMS = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("concurrent audits disagree at %d", i)
		}
	}
	if st := s.Stats(); st.Audits != 1 {
		t.Errorf("%d concurrent identical audits ran %d sweeps, want 1", callers, st.Audits)
	}
}

func TestServedAuditValidation(t *testing.T) {
	s, ts := startServer(t, Config{})
	pub := publishMedical(t, s)
	if code := post(t, ts.URL+"/audit", auditRequest{ID: "pub-missing"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown id returned %d", code)
	}
	if code := post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: maxAuditTrials + 1}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized trials returned %d", code)
	}
	if code := post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Top: maxAuditTop + 1}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized top returned %d", code)
	}
	if code := post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, MaxGroups: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("negative max_groups returned %d", code)
	}
}

// TestAdversaryErrorPaths drives every rejection path of POST /reconstruct
// and POST /audit through one table: each case must produce the expected
// status code and the typed JSON error body ({"error": "..."} with a
// non-empty, recognizable message) — the contract adversary tooling and the
// workload simulator parse.
func TestAdversaryErrorPaths(t *testing.T) {
	s, ts := startServer(t, Config{MaxBatch: 2})
	pub := publishMedical(t, s)
	male := []CondJSON{{Attr: "Gender", Value: "Male"}}

	cases := []struct {
		name     string
		path     string
		body     string // raw request body, sent verbatim
		wantCode int
		wantMsg  string // substring the typed error must contain
	}{
		{
			name:     "reconstruct malformed json",
			path:     "/reconstruct",
			body:     `{"id": "` + pub.ID + `", "subsets": [[{`,
			wantCode: http.StatusBadRequest,
			wantMsg:  "bad request body",
		},
		{
			name:     "reconstruct unknown publication",
			path:     "/reconstruct",
			body:     mustJSON(t, reconstructRequest{ID: "pub-missing", Subsets: [][]CondJSON{male}}),
			wantCode: http.StatusNotFound,
			wantMsg:  `no publication "pub-missing"`,
		},
		{
			name:     "reconstruct empty batch",
			path:     "/reconstruct",
			body:     mustJSON(t, reconstructRequest{ID: pub.ID}),
			wantCode: http.StatusBadRequest,
			wantMsg:  "empty subset batch",
		},
		{
			name:     "reconstruct over-cap batch",
			path:     "/reconstruct",
			body:     mustJSON(t, reconstructRequest{ID: pub.ID, Subsets: [][]CondJSON{male, male, male}}),
			wantCode: http.StatusRequestEntityTooLarge,
			wantMsg:  "exceeds the limit 2",
		},
		{
			name:     "reconstruct wrong method",
			path:     "/reconstruct",
			body:     "",
			wantCode: http.StatusMethodNotAllowed,
			wantMsg:  "use POST",
		},
		{
			name:     "audit malformed json",
			path:     "/audit",
			body:     `{"id": 12`,
			wantCode: http.StatusBadRequest,
			wantMsg:  "bad request body",
		},
		{
			name:     "audit unknown publication",
			path:     "/audit",
			body:     mustJSON(t, auditRequest{ID: "pub-missing"}),
			wantCode: http.StatusNotFound,
			wantMsg:  `no publication "pub-missing"`,
		},
		{
			name:     "audit over-cap trials",
			path:     "/audit",
			body:     mustJSON(t, auditRequest{ID: pub.ID, Trials: maxAuditTrials + 1}),
			wantCode: http.StatusBadRequest,
			wantMsg:  "trials must be in",
		},
		{
			name:     "audit over-cap max_groups",
			path:     "/audit",
			body:     mustJSON(t, auditRequest{ID: pub.ID, MaxGroups: maxAuditGroups + 1}),
			wantCode: http.StatusBadRequest,
			wantMsg:  "max_groups must be in",
		},
		{
			name:     "audit negative max_groups",
			path:     "/audit",
			body:     mustJSON(t, auditRequest{ID: pub.ID, MaxGroups: -1}),
			wantCode: http.StatusBadRequest,
			wantMsg:  "max_groups must be in",
		},
		{
			name:     "audit over-cap top",
			path:     "/audit",
			body:     mustJSON(t, auditRequest{ID: pub.ID, Top: maxAuditTop + 1}),
			wantCode: http.StatusBadRequest,
			wantMsg:  "top must be in",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var body struct {
				Error string `json:"error"`
			}
			if tc.body == "" {
				code = get(t, ts.URL+tc.path, &body)
			} else {
				code = postRaw(t, ts.URL+tc.path, tc.body, &body)
			}
			if code != tc.wantCode {
				t.Errorf("status %d, want %d", code, tc.wantCode)
			}
			if body.Error == "" {
				t.Fatal("error body missing the typed error field")
			}
			if !strings.Contains(body.Error, tc.wantMsg) {
				t.Errorf("error %q does not mention %q", body.Error, tc.wantMsg)
			}
		})
	}
}

// mustJSON marshals a request body for the error-path table.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestServedAuditIncremental(t *testing.T) {
	// Incremental publications audit their raw-group snapshot; after an
	// insert wave, a fresh audit sees the new groups.
	s, ts := startServer(t, Config{})
	req := medicalRequest()
	req.Method = MethodIncremental
	e, _, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	var first auditResponse
	if code := post(t, ts.URL+"/audit", auditRequest{ID: pub.ID, Trials: 100}, &first); code != http.StatusOK {
		t.Fatalf("audit returned %d", code)
	}
	if first.SPS {
		t.Error("incremental audits should use the plain perturbation process")
	}
	if first.GroupsAudited == 0 {
		t.Error("no groups audited")
	}
}
