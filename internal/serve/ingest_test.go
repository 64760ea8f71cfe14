package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// benchPost is the benchmark twin of post: send JSON, drain the response,
// return the status.
func benchPost(b *testing.B, url string, body any) int {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// insertBatch builds one deterministic batch of medical records, both as the
// JSON label form and the binary full-schema code form, from a shared stream
// — the two encodings of the same records, for cross-path equivalence tests.
func insertBatch(rng *rand.Rand, n int) (recs []map[string]string, codes [][]uint16) {
	schema := datagen.MedicalSchema()
	for i := 0; i < n; i++ {
		rec := make([]uint16, schema.NumAttrs())
		lab := make(map[string]string, schema.NumAttrs())
		for a := 0; a < schema.NumAttrs(); a++ {
			rec[a] = uint16(rng.Intn(schema.Attrs[a].Domain()))
			lab[schema.Attrs[a].Name] = schema.Attrs[a].Label(rec[a])
		}
		recs = append(recs, lab)
		codes = append(codes, rec)
	}
	return recs, codes
}

// publishIncremental publishes the standard incremental test publication.
func publishIncremental(t *testing.T, s *Server, size int) *Entry {
	t.Helper()
	req := medicalRequest()
	req.Method = MethodIncremental
	req.Size = size
	e, _, err := s.Publish(req, true)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// queryBattery answers every (Job, Disease) and (Gender, Disease) single-
// condition query — full coverage of the 1-dim cubes the medical publication
// serves — and returns the counts and raw estimate bits for bit-exact
// comparison across servers.
func queryBattery(t *testing.T, url, id string) (counts []int, estBits []uint64) {
	t.Helper()
	schema := datagen.MedicalSchema()
	var qs []QueryJSON
	for _, attr := range []int{0, 1} {
		for v := 0; v < schema.Attrs[attr].Domain(); v++ {
			for sa := 0; sa < schema.SADomain(); sa++ {
				qs = append(qs, QueryJSON{
					Conds: []CondJSON{{Attr: schema.Attrs[attr].Name, Value: schema.Attrs[attr].Label(uint16(v))}},
					SA:    schema.SAAttr().Label(uint16(sa)),
				})
			}
		}
	}
	var resp QueryResponse
	if code := post(t, url+"/query", queryRequest{ID: id, Queries: qs}, &resp); code != http.StatusOK {
		t.Fatalf("query battery returned %d", code)
	}
	for i, a := range resp.Answers {
		if a.Error != "" {
			t.Fatalf("battery query %d: %s", i, a.Error)
		}
		counts = append(counts, a.Count)
		estBits = append(estBits, math.Float64bits(a.Estimate))
	}
	return counts, estBits
}

// TestDeltaInsertMatchesFullIndex is the ingest golden test: the delta path
// (flush increments, append a marginal generation, overlay the raw groups)
// must serve the exact publication a full index of the same publisher state
// builds — a restore of the stream's snapshot on a fresh server, which
// indexes the whole state as one flat generation. Digest-identical, so the
// marginal checksums, metadata, and the full raw group dump all agree, not
// just the answers.
func TestDeltaInsertMatchesFullIndex(t *testing.T) {
	s, ts := startServer(t, Config{})
	e := publishIncremental(t, s, 1000)

	rng := rand.New(rand.NewSource(42))
	total := 1000
	for batch := 0; batch < 6; batch++ {
		recs, _ := insertBatch(rng, 25+batch*10)
		total += len(recs)
		var ins insertResponse
		if code := post(t, ts.URL+"/insert", insertRequest{ID: e.ID(), Records: recs}, &ins); code != http.StatusOK {
			t.Fatalf("insert returned %d", code)
		}
		if ins.Inserted != len(recs) || ins.Trials+ins.Absorbed != len(recs) || ins.TotalRecords != total {
			t.Fatalf("batch %d accounting: %+v, want %d records of %d total", batch, ins, len(recs), total)
		}
	}
	pub, err := e.Publication()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Meta.Records != total || pub.Meta.RecordsOut != total {
		t.Fatalf("delta meta not current: %+v, want %d records", pub.Meta, total)
	}
	if g := pub.Marg.Generations(); g != 7 {
		t.Fatalf("delta path holds %d generations, want 7 (base + 6 deltas)", g)
	}
	if st := s.Stats(); st.IngestAppends != 6 {
		t.Fatalf("%d appends for 6 batches", st.IngestAppends)
	}

	_, tsFull := startServer(t, Config{})
	if code := post(t, tsFull.URL+"/restore", snapshotOf(t, ts.URL, e.ID()), nil); code != http.StatusOK {
		t.Fatalf("restore returned %d", code)
	}
	cD, bD := queryBattery(t, ts.URL, e.ID())
	cF, bF := queryBattery(t, tsFull.URL, e.ID())
	for i := range cD {
		if cD[i] != cF[i] || bD[i] != bF[i] {
			t.Fatalf("answer %d diverged: delta count=%d est=%x, full index count=%d est=%x",
				i, cD[i], bD[i], cF[i], bF[i])
		}
	}
	if dD, dF := getDigest(t, ts.URL, e.ID()), getDigest(t, tsFull.URL, e.ID()); dD != dF {
		t.Fatalf("digest diverged: delta %+v, full index %+v", dD, dF)
	}
}

// TestCompactionByteIdentity inserts the same stream into servers whose only
// difference is the compaction threshold (disabled, aggressive, moderate)
// and requires the served publications to be digest-identical at every
// query worker width — compaction must be invisible except to the statsz
// counter.
func TestCompactionByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		type variant struct {
			every int
			s     *Server
			ts    *httptest.Server
			e     *Entry
		}
		variants := []*variant{{every: -1}, {every: 1}, {every: 3}}
		for _, v := range variants {
			v.s, v.ts = startServer(t, Config{CompactEvery: v.every, QueryWorkers: workers, PipelineWorkers: workers})
			v.e = publishIncremental(t, v.s, 800)
		}

		rng := rand.New(rand.NewSource(int64(workers)))
		for batch := 0; batch < 8; batch++ {
			recs, _ := insertBatch(rng, 30)
			for _, v := range variants {
				if code := post(t, v.ts.URL+"/insert", insertRequest{ID: v.e.ID(), Records: recs}, nil); code != http.StatusOK {
					t.Fatalf("workers=%d compact_every=%d: insert returned %d", workers, v.every, code)
				}
			}
		}

		// The aggressive server must actually compact (the trigger is
		// deterministic, completion is async — poll briefly).
		deadline := time.Now().Add(5 * time.Second)
		for variants[1].s.Stats().Compactions == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: no compaction completed with compact_every=1", workers)
			}
			time.Sleep(time.Millisecond)
		}
		pub0, err := variants[0].e.Publication()
		if err != nil {
			t.Fatal(err)
		}
		if pub0.Marg.Generations() != 9 {
			t.Fatalf("workers=%d: disabled compaction holds %d generations, want 9", workers, pub0.Marg.Generations())
		}

		refCounts, refBits := queryBattery(t, variants[0].ts.URL, variants[0].e.ID())
		refDigest := pub0.Digest()
		for _, v := range variants[1:] {
			c, b := queryBattery(t, v.ts.URL, v.e.ID())
			for i := range refCounts {
				if c[i] != refCounts[i] || b[i] != refBits[i] {
					t.Fatalf("workers=%d compact_every=%d: answer %d diverged", workers, v.every, i)
				}
			}
			pub, err := v.e.Publication()
			if err != nil {
				t.Fatal(err)
			}
			if d := pub.Digest(); d != refDigest {
				t.Fatalf("workers=%d compact_every=%d: digest %s, want %s (generations %d)",
					workers, v.every, d, refDigest, pub.Marg.Generations())
			}
		}
	}
}

// TestBinaryInsertEquivalence feeds one server JSON label records and a twin
// the same records as binary code frames: accounting, digests, and answers
// must be indistinguishable. It then drives the binary decoder's rejection
// paths — errors are the JSON ErrorBody envelope even on the binary path.
func TestBinaryInsertEquivalence(t *testing.T) {
	sJSON, tsJSON := startServer(t, Config{})
	sBin, tsBin := startServer(t, Config{})
	eJ := publishIncremental(t, sJSON, 600)
	eB := publishIncremental(t, sBin, 600)
	schema := datagen.MedicalSchema()

	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 4; batch++ {
		recs, codes := insertBatch(rng, 40)
		var insJ insertResponse
		if code := post(t, tsJSON.URL+"/insert", insertRequest{ID: eJ.ID(), Records: recs}, &insJ); code != http.StatusOK {
			t.Fatalf("json insert returned %d", code)
		}
		frame := (&wire.InsertReq{
			ID:      []byte(eB.ID()),
			Client:  []byte("firehose"),
			NAttrs:  schema.NumAttrs(),
			Records: codes,
		}).Append(nil)
		status, body, ct := postBinary(t, tsBin.URL+"/insert", frame)
		if status != http.StatusOK || ct != wire.ContentType {
			t.Fatalf("binary insert returned %d (%s): %s", status, ct, body)
		}
		var insB wire.InsertResp
		if err := insB.Decode(body); err != nil {
			t.Fatalf("decoding binary insert response: %v", err)
		}
		if string(insB.ID) != eB.ID() || string(insB.Client) != "firehose" {
			t.Fatalf("binary insert echo: id=%q client=%q", insB.ID, insB.Client)
		}
		if int(insB.Inserted) != insJ.Inserted || int(insB.Trials) != insJ.Trials ||
			int(insB.Absorbed) != insJ.Absorbed || int(insB.TotalRecords) != insJ.TotalRecords {
			t.Fatalf("batch %d accounting diverged: json=%+v binary=%+v", batch, insJ, insB)
		}
	}

	pubJ, err := eJ.Publication()
	if err != nil {
		t.Fatal(err)
	}
	pubB, err := eB.Publication()
	if err != nil {
		t.Fatal(err)
	}
	if pubJ.Digest() != pubB.Digest() {
		t.Fatalf("digest diverged between JSON and binary ingest: %s vs %s", pubJ.Digest(), pubB.Digest())
	}
	cJ, bJ := queryBattery(t, tsJSON.URL, eJ.ID())
	cB, bB := queryBattery(t, tsBin.URL, eB.ID())
	for i := range cJ {
		if cJ[i] != cB[i] || bJ[i] != bB[i] {
			t.Fatalf("answer %d diverged between JSON and binary ingest", i)
		}
	}

	// Rejection paths. Every case must come back as the JSON error envelope
	// with a stable code, and leave the publication untouched.
	before := sBin.Stats().Inserts
	badDomain := [][]uint16{{0, 0, uint16(schema.SADomain())}}
	spsEntry, _, err := sBin.Publish(medicalRequest(), true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		frame  []byte
		status int
		code   ErrorCode
	}{
		{"garbage", []byte("not a frame"), http.StatusBadRequest, CodeBadRequest},
		{"empty batch", (&wire.InsertReq{ID: []byte(eB.ID()), NAttrs: 3}).Append(nil), http.StatusBadRequest, CodeBadRequest},
		{"wrong arity", (&wire.InsertReq{ID: []byte(eB.ID()), NAttrs: 2, Records: [][]uint16{{0, 0}}}).Append(nil), http.StatusBadRequest, CodeBadRequest},
		{"sa out of domain", (&wire.InsertReq{ID: []byte(eB.ID()), NAttrs: 3, Records: badDomain}).Append(nil), http.StatusBadRequest, CodeBadRequest},
		{"na out of domain", (&wire.InsertReq{ID: []byte(eB.ID()), NAttrs: 3, Records: [][]uint16{{uint16(schema.Attrs[0].Domain()), 0, 0}}}).Append(nil), http.StatusBadRequest, CodeBadRequest},
		{"not incremental", (&wire.InsertReq{ID: []byte(spsEntry.ID()), NAttrs: 3, Records: [][]uint16{{0, 0, 0}}}).Append(nil), http.StatusConflict, CodeNotIncremental},
	}
	for _, tc := range cases {
		status, body, ct := postBinary(t, tsBin.URL+"/insert", tc.frame)
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body)
		}
		if ct != "application/json" {
			t.Fatalf("%s: error content type %q, want JSON envelope", tc.name, ct)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != tc.code {
			t.Fatalf("%s: error body %s (parse err %v), want code %s", tc.name, body, err, tc.code)
		}
	}
	if after := sBin.Stats().Inserts; after != before {
		t.Fatalf("rejected frames inserted records: %d -> %d", before, after)
	}
}

// TestConcurrentInsertQueryCompact hammers one incremental publication with
// parallel inserts, queries, and (via CompactEvery=1) near-continuous
// background compaction. Meaningful under -race; the end-state assertions
// check conservation — every accepted record is eventually served.
func TestConcurrentInsertQueryCompact(t *testing.T) {
	s, ts := startServer(t, Config{CompactEvery: 1})
	e := publishIncremental(t, s, 500)
	schema := datagen.MedicalSchema()

	const inserters, batches, perBatch = 4, 8, 20
	var wg sync.WaitGroup
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for b := 0; b < batches; b++ {
				recs, _ := insertBatch(rng, perBatch)
				var ins insertResponse
				if code := post(t, ts.URL+"/insert", insertRequest{ID: e.ID(), Records: recs}, &ins); code != http.StatusOK {
					t.Errorf("inserter %d: insert returned %d", g, code)
					return
				}
				if ins.Trials+ins.Absorbed != perBatch {
					t.Errorf("inserter %d: accounting %+v", g, ins)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var resp QueryResponse
				code := post(t, ts.URL+"/query", queryRequest{ID: e.ID(), Queries: []QueryJSON{{
					Conds: []CondJSON{{Attr: "Job", Value: schema.Attrs[1].Label(uint16(i % schema.Attrs[1].Domain()))}},
					SA:    schema.SAAttr().Label(uint16(i % schema.SADomain())),
				}}}, &resp)
				if code != http.StatusOK {
					t.Errorf("querier %d: query returned %d", g, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every insert has returned, so the served metadata must account for
	// every accepted record, whichever compactions landed in between.
	total := 500 + inserters*batches*perBatch
	var info publicationJSON
	if code := get(t, fmt.Sprintf("%s/publications?id=%s", ts.URL, e.ID()), &info); code != http.StatusOK {
		t.Fatal("publication lookup failed")
	}
	if info.Meta == nil || info.Meta.Records != total || info.Meta.RecordsOut != total {
		t.Fatalf("conservation violated: meta %+v, want %d records", info.Meta, total)
	}
	if st := s.Stats(); st.QueryErrors != 0 {
		t.Fatalf("%d per-query errors under concurrency", st.QueryErrors)
	}
}

// BenchmarkSustainedIngest measures the end-to-end /insert firehose under
// the mixed workload the delta path exists for: each iteration lands one
// batch and immediately queries the publication it extended. CI's bench
// smoke runs it.
func BenchmarkSustainedIngest(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := medicalRequest()
	req.Method = MethodIncremental
	req.Size = 20000
	e, _, err := s.Publish(req, true)
	if err != nil {
		b.Fatal(err)
	}
	schema := datagen.MedicalSchema()
	rng := rand.New(rand.NewSource(3))
	const perBatch = 100
	query := queryRequest{ID: e.ID(), Queries: []QueryJSON{{
		Conds: []CondJSON{{Attr: "Job", Value: schema.Attrs[1].Label(0)}},
		SA:    schema.SAAttr().Label(0),
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _ := insertBatch(rng, perBatch)
		if code := benchPost(b, ts.URL+"/insert", insertRequest{ID: e.ID(), Records: recs}); code != http.StatusOK {
			b.Fatalf("insert returned %d", code)
		}
		if code := benchPost(b, ts.URL+"/query", query); code != http.StatusOK {
			b.Fatalf("query returned %d", code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(perBatch*b.N)/b.Elapsed().Seconds(), "records/s")
}
