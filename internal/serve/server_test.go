package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/reconpriv/reconpriv/internal/chimerge"
	"github.com/reconpriv/reconpriv/internal/core"
	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/dataset"
	"github.com/reconpriv/reconpriv/internal/query"
)

// medicalRequest is the small, fast publication most tests publish.
func medicalRequest() PublishRequest {
	return PublishRequest{Dataset: DatasetMedical, Size: 2000, Seed: 1, Wait: true}
}

// startServer spins up a test server.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response into out, returning
// the status code.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// postRaw sends a body verbatim — the error-path tests use it to deliver
// deliberately malformed JSON that post's Marshal round-trip would reject.
func postRaw(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServedBatchMatchesInlineMarginals is the golden test: answers served
// over HTTP must equal Marginals.Count / Marginals.Estimate computed inline
// from an identical pipeline run (same data, same seed — the parallel
// publisher is bit-deterministic for any worker count).
func TestServedBatchMatchesInlineMarginals(t *testing.T) {
	_, ts := startServer(t, Config{})
	var pub publicationJSON
	if code := post(t, ts.URL+"/publish", medicalRequest(), &pub); code != http.StatusOK {
		t.Fatalf("publish returned %d", code)
	}
	if pub.Status != "ready" {
		t.Fatalf("publication is %s: %s", pub.Status, pub.Error)
	}

	// Inline reference pipeline.
	raw, err := datagen.Medical(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chimerge.Generalize(raw, chimerge.DefaultSignificance)
	if err != nil {
		t.Fatal(err)
	}
	groups := dataset.GroupsOf(res.Table)
	published, _, err := core.PublishSPSParallel(1, groups, core.Params{P: 0.5, Lambda: 0.3, Delta: 0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	marg, err := query.BuildMarginalsFromGroups(published, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Every (Gender, Job, Disease) combination as a served batch.
	schema := datagen.MedicalSchema()
	var wire []QueryJSON
	var inline []query.Query
	for g := uint16(0); g < 2; g++ {
		for j := uint16(0); j < 5; j++ {
			for sa := uint16(0); sa < 10; sa++ {
				wire = append(wire, QueryJSON{
					Conds: []CondJSON{
						{Attr: "Gender", Value: schema.Attrs[0].Label(g)},
						{Attr: "Job", Value: schema.Attrs[1].Label(j)},
					},
					SA: schema.SAAttr().Label(sa),
				})
				// The inline query goes through the same generalization map.
				cg, cj := g, j
				for i := range res.Mappings {
					switch res.Mappings[i].Attr {
					case 0:
						cg = res.Mappings[i].OldToNew[g]
					case 1:
						cj = res.Mappings[i].OldToNew[j]
					}
				}
				inline = append(inline, query.Query{
					Conds: []query.Cond{{Attr: 0, Value: cg}, {Attr: 1, Value: cj}},
					SA:    sa,
				})
			}
		}
	}

	var resp QueryResponse
	if code := post(t, ts.URL+"/query", queryRequest{ID: pub.ID, Queries: wire}, &resp); code != http.StatusOK {
		t.Fatalf("query returned %d", code)
	}
	if len(resp.Answers) != len(wire) {
		t.Fatalf("%d answers for %d queries", len(resp.Answers), len(wire))
	}
	for i := range inline {
		if resp.Answers[i].Error != "" {
			t.Fatalf("query %d failed: %s", i, resp.Answers[i].Error)
		}
		count, err := marg.Count(inline[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Answers[i].Count != count {
			t.Fatalf("query %d: served count %d, inline %d", i, resp.Answers[i].Count, count)
		}
		est, err := marg.Estimate(inline[i], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Answers[i].Estimate != est {
			t.Fatalf("query %d: served estimate %v, inline %v", i, resp.Answers[i].Estimate, est)
		}
	}
}

// TestPublishSingleflightDedupe hammers one identical publish request from
// many goroutines: every caller must receive the same publication id and
// the pipeline must run exactly once.
func TestPublishSingleflightDedupe(t *testing.T) {
	s, _ := startServer(t, Config{})
	const callers = 32
	ids := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := s.Publish(medicalRequest(), true)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = e.ID()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got id %s, caller 0 got %s", i, ids[i], ids[0])
		}
	}
	st := s.Stats()
	if st.PublishRuns != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests", st.PublishRuns, callers)
	}
	if st.CacheHits != callers-1 {
		t.Fatalf("cache hits %d, want %d", st.CacheHits, callers-1)
	}
	if st.Publications != 1 {
		t.Fatalf("registry holds %d publications, want 1", st.Publications)
	}
}

// TestConcurrentPublishQuery is the race test (run with -race in CI):
// publishers, queriers, inserters, and refreshers all hit one server at
// once, and refreshes of the incremental publication race its inserts.
func TestConcurrentPublishQuery(t *testing.T) {
	s, ts := startServer(t, Config{})

	// Pre-publish the queried and the incremental publications. The
	// incremental one is large enough that a refresh's index build spans
	// several inserts.
	qe, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	incReq := medicalRequest()
	incReq.Method = MethodIncremental
	incReq.Size = 20000
	ie, _, err := s.Publish(incReq, true)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Publishers: a parameter sweep plus repeats of the cached key.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := medicalRequest()
			req.Seed = int64(1 + i%4) // 4 distinct keys, each published twice
			if _, _, err := s.Publish(req, true); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Queriers.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := qe.ID()
			if i%2 == 0 {
				id = ie.ID()
			}
			for r := 0; r < 10; r++ {
				var resp QueryResponse
				code := post(t, ts.URL+"/query", queryRequest{
					ID:   id,
					Wait: true,
					Queries: []QueryJSON{
						{Conds: []CondJSON{{Attr: "Job", Value: "Engineer"}}, SA: "Flu"},
						{Conds: []CondJSON{{Attr: "Gender", Value: "Female"}}, SA: "BreastCancer"},
					},
				}, &resp)
				if code != http.StatusOK {
					t.Errorf("query returned %d", code)
					return
				}
			}
		}(i)
	}
	// Inserters into the incremental publication.
	const inserters, batches, perBatch = 2, 20, 10
	for i := 0; i < inserters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < batches; r++ {
				recs, _ := insertBatch(rng, perBatch)
				if code := post(t, ts.URL+"/insert", insertRequest{ID: ie.ID(), Records: recs}, nil); code != http.StatusOK {
					t.Errorf("insert returned %d", code)
					return
				}
			}
		}(i)
	}
	// Refreshers of the SPS publication, and of the incremental one racing
	// its inserts.
	for id, n := range map[string]int{qe.ID(): 3, ie.ID(): 5} {
		wg.Add(1)
		go func(id string, n int) {
			defer wg.Done()
			for r := 0; r < n; r++ {
				code := post(t, ts.URL+"/refresh", refreshRequest{ID: id, Wait: true}, nil)
				if code != http.StatusOK {
					t.Errorf("refresh returned %d", code)
					return
				}
			}
		}(id, n)
	}
	wg.Wait()

	st := s.Stats()
	if st.QueryErrors != 0 {
		t.Fatalf("%d per-query errors", st.QueryErrors)
	}
	inserted := inserters * batches * perBatch
	if st.Inserts != uint64(inserted) {
		t.Fatalf("inserts %d, want %d", st.Inserts, inserted)
	}

	// Every request has returned and no query has run since. The served
	// publication must hold every acknowledged batch, each appended once,
	// and be the publication a full index of the publisher's state serves.
	pub, err := ie.Publication()
	if err != nil {
		t.Fatal(err)
	}
	if want := incReq.Size + inserted; pub.Meta.Records != want {
		t.Fatalf("served publication holds %d raw records, want %d: an acknowledged batch is missing", pub.Meta.Records, want)
	}
	if st.IngestAppends != inserters*batches {
		t.Fatalf("ingest_appends %d, want one per insert batch (%d)", st.IngestAppends, inserters*batches)
	}
	_, tsFull := startServer(t, Config{})
	if code := post(t, tsFull.URL+"/restore", snapshotOf(t, ts.URL, ie.ID()), nil); code != http.StatusOK {
		t.Fatalf("restore returned %d", code)
	}
	if d, full := getDigest(t, ts.URL, ie.ID()), getDigest(t, tsFull.URL, ie.ID()); d != full {
		t.Fatalf("served digest %+v, a full index of the same state %+v", d, full)
	}
}

// TestInsertAbsorbsRecords checks the incremental path end to end: inserts
// land without a republish, and the next query serves the grown data.
func TestInsertAbsorbsRecords(t *testing.T) {
	s, ts := startServer(t, Config{})
	req := medicalRequest()
	req.Method = MethodIncremental
	req.Size = 1000
	e, _, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}

	records := make([]map[string]string, 50)
	for i := range records {
		records[i] = map[string]string{"Gender": "Male", "Job": "Engineer", "Disease": "Flu"}
	}
	var ins insertResponse
	if code := post(t, ts.URL+"/insert", insertRequest{ID: e.ID(), Records: records}, &ins); code != http.StatusOK {
		t.Fatalf("insert returned %d", code)
	}
	if ins.Inserted != 50 || ins.Trials+ins.Absorbed != 50 {
		t.Fatalf("unexpected insert accounting: %+v", ins)
	}
	if ins.TotalRecords != 1050 {
		t.Fatalf("total records %d, want 1050", ins.TotalRecords)
	}

	// The next query is answered from, and the publication metadata
	// reflects, the grown data.
	var resp QueryResponse
	if code := post(t, ts.URL+"/query", queryRequest{
		ID:      e.ID(),
		Queries: []QueryJSON{{Conds: []CondJSON{{Attr: "Job", Value: "Engineer"}}, SA: "Flu"}},
	}, &resp); code != http.StatusOK {
		t.Fatalf("query returned %d", code)
	}
	var info publicationJSON
	if code := get(t, fmt.Sprintf("%s/publications?id=%s", ts.URL, e.ID()), &info); code != http.StatusOK {
		t.Fatal("publication lookup failed")
	}
	if info.Meta == nil || info.Meta.Records != 1050 || info.Meta.RecordsOut != 1050 {
		t.Fatalf("metadata does not cover the insert: %+v", info.Meta)
	}

	// Inserting into a non-incremental publication is refused.
	spsEntry, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	if code := post(t, ts.URL+"/insert", insertRequest{ID: spsEntry.ID(), Records: records[:1]}, nil); code != http.StatusConflict {
		t.Fatalf("insert into sps publication returned %d, want 409", code)
	}
}

// TestRefreshRedrawsPerturbation checks that /refresh bumps the generation
// and actually re-rolls the randomness while keeping the id stable.
func TestRefreshRedrawsPerturbation(t *testing.T) {
	s, ts := startServer(t, Config{})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	schema := datagen.MedicalSchema()
	var wire []QueryJSON
	for j := uint16(0); j < 5; j++ {
		for sa := uint16(0); sa < 10; sa++ {
			wire = append(wire, QueryJSON{
				Conds: []CondJSON{{Attr: "Job", Value: schema.Attrs[1].Label(j)}},
				SA:    schema.SAAttr().Label(sa),
			})
		}
	}
	counts := func() []int {
		var resp QueryResponse
		if code := post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Queries: wire}, &resp); code != http.StatusOK {
			t.Fatalf("query returned %d", code)
		}
		out := make([]int, len(resp.Answers))
		for i, a := range resp.Answers {
			if a.Error != "" {
				t.Fatalf("query %d: %s", i, a.Error)
			}
			out[i] = a.Count
		}
		return out
	}
	before := counts()

	var ref publicationJSON
	if code := post(t, ts.URL+"/refresh", refreshRequest{ID: e.ID(), Wait: true}, &ref); code != http.StatusOK {
		t.Fatalf("refresh returned %d", code)
	}
	if ref.Generation != 1 {
		t.Fatalf("generation %d after refresh, want 1", ref.Generation)
	}
	if ref.ID != e.ID() {
		t.Fatalf("refresh changed the id: %s -> %s", e.ID(), ref.ID)
	}
	after := counts()

	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("refresh did not change a single published count (RNG stream not fresh?)")
	}
}

// TestFailedPublishRetries checks that a key whose first build failed is
// not poisoned: a later identical publish retries the build and can
// succeed once the underlying cause (here, a missing CSV file) is fixed.
func TestFailedPublishRetries(t *testing.T) {
	s, _ := startServer(t, Config{AllowCSV: true})
	path := t.TempDir() + "/data.csv"
	req := PublishRequest{Dataset: DatasetCSV, Path: path, SA: "Disease", Wait: true}

	e, started, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}
	if !started || e.Status() != "failed" {
		t.Fatalf("publish of a missing file: started=%v status=%s", started, e.Status())
	}

	if err := os.WriteFile(path, []byte("Gender,Disease\nMale,Flu\nFemale,Flu\nMale,HIV\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, started, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID() != e.ID() {
		t.Fatalf("retry changed the id: %s -> %s", e.ID(), e2.ID())
	}
	if !started {
		t.Fatal("second publish did not retry the failed build")
	}
	if e2.Status() != "ready" {
		pub, err := e2.Publication()
		t.Fatalf("retry did not recover: status=%s pub=%v err=%v", e2.Status(), pub, err)
	}
	pub, err := e2.Publication()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Meta.Records != 3 {
		t.Fatalf("records %d, want 3", pub.Meta.Records)
	}
	if st := s.Stats(); st.PublishRuns != 2 {
		t.Fatalf("publish runs %d, want 2 (initial failure + retry)", st.PublishRuns)
	}
}

// TestPublicationLimit checks the registry creation cap and that size
// bounds reject oversized generator requests.
func TestPublicationLimit(t *testing.T) {
	s, _ := startServer(t, Config{MaxPublications: 2})
	for seed := int64(1); seed <= 2; seed++ {
		req := medicalRequest()
		req.Seed = seed
		if _, _, err := s.Publish(req, true); err != nil {
			t.Fatal(err)
		}
	}
	req := medicalRequest()
	req.Seed = 3
	if _, _, err := s.Publish(req, true); err == nil {
		t.Fatal("third distinct key accepted beyond MaxPublications=2")
	}
	// Cached keys still resolve.
	req.Seed = 1
	if _, _, err := s.Publish(req, true); err != nil {
		t.Fatalf("cached key rejected: %v", err)
	}

	// Size bounds.
	if err := (&PublishRequest{Dataset: DatasetMedical, Size: MaxGeneratedSize + 1}).Normalize(); err == nil {
		t.Fatal("oversized medical request accepted")
	}
	if err := (&PublishRequest{Dataset: DatasetCensus, Size: 600000}).Normalize(); err == nil {
		t.Fatal("oversized census request accepted")
	}
	if err := (&PublishRequest{Dataset: DatasetMedical, Size: -1}).Normalize(); err == nil {
		t.Fatal("negative size accepted")
	}
}

// TestExposureAccounting checks the per-client cumulative counter and the
// warning threshold.
func TestExposureAccounting(t *testing.T) {
	s, ts := startServer(t, Config{ExposureWarn: 10})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]QueryJSON, 6)
	for i := range batch {
		batch[i] = QueryJSON{Conds: []CondJSON{{Attr: "Job", Value: "Clerk"}}, SA: "Flu"}
	}
	var first QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Client: "alice", Queries: batch}, &first)
	if first.ClientQueries != 6 || first.ExposureWarning {
		t.Fatalf("after 6 queries: %+v", first)
	}
	var second QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Client: "alice", Queries: batch}, &second)
	if second.ClientQueries != 12 || !second.ExposureWarning {
		t.Fatalf("after 12 queries: %+v", second)
	}
	// A different client starts from zero.
	var other QueryResponse
	req := httptest.NewRequest(http.MethodPost, "/query", jsonBody(t, queryRequest{ID: e.ID(), Client: "bob", Queries: batch}))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &other); err != nil {
		t.Fatal(err)
	}
	if other.ClientQueries != 6 || other.ExposureWarning {
		t.Fatalf("bob after 6 queries: %+v", other)
	}

	// Decoded bodies live in pooled scratch: a body that names no client,
	// served right after bob's, is charged to the caller's address, and its
	// condition-less query inherits none of bob's conditions.
	req = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"id":"`+e.ID()+`","queries":[{"sa":"Flu"}]}`))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var anon QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &anon); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.Bytes(), err)
	}
	if anon.Client != "192.0.2.1" || len(anon.Answers) != 1 || anon.Answers[0].Error == "" {
		t.Fatalf("client-less, condition-less batch answered %+v", anon)
	}
}

// TestRequestValidation covers the failure surface of the HTTP API.
func TestRequestValidation(t *testing.T) {
	s, ts := startServer(t, Config{MaxBatch: 4})
	e, _, err := s.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		url  string
		body any // marshaled to JSON; a []byte is served verbatim, in process
		want int
	}{
		{"unknown dataset", ts.URL + "/publish", PublishRequest{Dataset: "nope"}, http.StatusBadRequest},
		{"unknown method", ts.URL + "/publish", PublishRequest{Dataset: DatasetMedical, Method: "laplace"}, http.StatusBadRequest},
		{"csv disabled", ts.URL + "/publish", PublishRequest{Dataset: DatasetCSV, Path: "x.csv", SA: "S"}, http.StatusBadRequest},
		{"bad p", ts.URL + "/publish", PublishRequest{Dataset: DatasetMedical, P: 1.5}, http.StatusBadRequest},
		{"missing publication", ts.URL + "/query", queryRequest{ID: "pub-none", Queries: []QueryJSON{{SA: "Flu"}}}, http.StatusNotFound},
		{"empty batch", ts.URL + "/query", queryRequest{ID: e.ID()}, http.StatusBadRequest},
		{"oversized batch", ts.URL + "/query", queryRequest{ID: e.ID(), Queries: make([]QueryJSON, 5)}, http.StatusRequestEntityTooLarge},
		{"missing refresh target", ts.URL + "/refresh", refreshRequest{ID: "pub-none"}, http.StatusNotFound},
		{"insert without records", ts.URL + "/insert", insertRequest{ID: e.ID()}, http.StatusBadRequest},
		// One bounded reader serves every body: a valid object followed by
		// more bytes is malformed, and a body past MaxBodyBytes is 413.
		{"trailing bytes", ts.URL + "/query",
			[]byte(`{"id":"` + e.ID() + `","queries":[{"sa":"Flu"}]} {}`), http.StatusBadRequest},
		{"over-limit body", ts.URL + "/query", make([]byte, MaxBodyBytes+1), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		var code int
		if raw, ok := tc.body.([]byte); ok {
			// In process: a socket peer may reset a client still writing
			// the body the server has already refused.
			req := httptest.NewRequest(http.MethodPost, tc.url, bytes.NewReader(raw))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			code = w.Code
		} else {
			code = post(t, tc.url, tc.body, nil)
		}
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// Per-query errors are per-query, not batch-fatal.
	var resp QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Queries: []QueryJSON{
		{Conds: []CondJSON{{Attr: "Job", Value: "Engineer"}}, SA: "Flu"},
		{Conds: []CondJSON{{Attr: "Job", Value: "Astronaut"}}, SA: "Flu"},
		{Conds: []CondJSON{{Attr: "Disease", Value: "Flu"}}, SA: "Flu"},
	}}, &resp)
	if resp.Answers[0].Error != "" {
		t.Fatalf("valid query failed: %s", resp.Answers[0].Error)
	}
	if resp.Answers[1].Error == "" || resp.Answers[2].Error == "" {
		t.Fatalf("invalid queries did not error: %+v", resp.Answers[1:])
	}
	// The answer carries the resolution error, not the evaluator's error
	// for the zero query a failed resolution leaves behind.
	if !strings.Contains(resp.Answers[1].Error, `"Astronaut"`) {
		t.Fatalf("unknown label answered %q, want its resolution error", resp.Answers[1].Error)
	}

	// GET endpoints exist and respond.
	if code := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	var st statszResponse
	if code := get(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz returned %d", code)
	}
	if st.QueryBatches == 0 || st.QueriesAnswered == 0 {
		t.Fatalf("statsz counters empty: %+v", st)
	}
	if st.QueryErrors != 2 {
		t.Fatalf("query errors %d, want 2", st.QueryErrors)
	}
}

// TestGeneralizedLabelQueries checks that clients may speak either the
// original vocabulary (mapped through the chi-square generalization) or the
// post-generalization labels.
func TestGeneralizedLabelQueries(t *testing.T) {
	s, ts := startServer(t, Config{})
	// medical-color guarantees a merge: FavoriteColor is SA-irrelevant, so
	// its six values generalize to one.
	req := PublishRequest{Dataset: DatasetMedicalColor, Size: 4000, Seed: 1, Wait: true}
	e, _, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := pub.Orig.AttrIndex("FavoriteColor")
	if err != nil {
		t.Fatal(err)
	}
	genLabel := pub.Marg.Schema.Attrs[ci].Values[0]

	var resp QueryResponse
	post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Queries: []QueryJSON{
		{Conds: []CondJSON{{Attr: "FavoriteColor", Value: "Red"}}, SA: "Flu"},
		{Conds: []CondJSON{{Attr: "FavoriteColor", Value: genLabel}}, SA: "Flu"},
	}}, &resp)
	for i, a := range resp.Answers {
		if a.Error != "" {
			t.Fatalf("query %d: %s", i, a.Error)
		}
	}
	if len(pub.Marg.Schema.Attrs[ci].Values) == 1 && resp.Answers[0].Count != resp.Answers[1].Count {
		t.Fatalf("original and generalized label disagree: %d vs %d",
			resp.Answers[0].Count, resp.Answers[1].Count)
	}
}
