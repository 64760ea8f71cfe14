package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// testPublish is the small, fast publication the failover tests place.
func testPublish(seed int64) serve.PublishRequest {
	return serve.PublishRequest{Dataset: serve.DatasetMedical, Size: 500, Seed: seed}
}

// doJSON drives the router handler in-process and decodes the response.
func doJSON(t *testing.T, h http.Handler, method, path string, headers map[string]string, body, out any) (int, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code, w.Result().Header
}

// queryBody builds a /query body of n identical single-condition queries.
func queryBody(id, client string, n int) map[string]any {
	qs := make([]serve.QueryJSON, n)
	for i := range qs {
		qs[i] = serve.QueryJSON{SA: "Flu"}
	}
	return map[string]any{"id": id, "client": client, "queries": qs, "wait": true}
}

func TestPlacement(t *testing.T) {
	// Deterministic, clamped, and within range.
	for _, tc := range []struct{ n, rf, want int }{
		{3, 2, 2}, {3, 5, 3}, {1, 1, 1}, {5, 0, 1},
	} {
		got := placement("pub-x", tc.n, tc.rf)
		if len(got) != tc.want {
			t.Fatalf("placement(n=%d, rf=%d) returned %d holders, want %d", tc.n, tc.rf, len(got), tc.want)
		}
		seen := map[int]bool{}
		for _, h := range got {
			if h < 0 || h >= tc.n || seen[h] {
				t.Fatalf("placement(n=%d, rf=%d) = %v: out of range or duplicate", tc.n, tc.rf, got)
			}
			seen[h] = true
		}
		again := placement("pub-x", tc.n, tc.rf)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("placement not deterministic: %v vs %v", got, again)
			}
		}
	}
	// Different ids spread across replicas: with 64 keys on 8 replicas,
	// every replica should hold something.
	counts := make([]int, 8)
	for k := 0; k < 64; k++ {
		for _, h := range placement(fmt.Sprintf("pub-%d", k), 8, 2) {
			counts[h]++
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("replica %d holds no publications across 64 keys: %v", i, counts)
		}
	}
}

func TestRoutedQueryMatchesSingleServer(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	var fleetResp serve.QueryResponse
	code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 4), &fleetResp)
	if code != http.StatusOK {
		t.Fatalf("routed query returned %d", code)
	}
	if fleetResp.Charged != 4 || fleetResp.ClientQueries != 4 {
		t.Fatalf("charged %d / cumulative %d, want 4 / 4", fleetResp.Charged, fleetResp.ClientQueries)
	}

	// The same batch against a standalone server must answer identically —
	// deterministic builds make replicas interchangeable.
	solo := serve.New(serve.Config{})
	if _, _, err := solo.Publish(testPublish(1), true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(solo.Handler())
	defer ts.Close()
	buf, _ := json.Marshal(queryBody(id, "c1", 4))
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var soloResp serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&soloResp); err != nil {
		t.Fatal(err)
	}
	if len(soloResp.Answers) != len(fleetResp.Answers) {
		t.Fatalf("answer counts differ: solo %d, fleet %d", len(soloResp.Answers), len(fleetResp.Answers))
	}
	for i := range soloResp.Answers {
		if soloResp.Answers[i] != fleetResp.Answers[i] {
			t.Fatalf("answer %d differs: solo %+v, fleet %+v", i, soloResp.Answers[i], fleetResp.Answers[i])
		}
	}
}

// mkFleet builds a fleet for a failover case on one transport.
type mkFleet func(t *testing.T, cfg Config) *Fleet

// fleetTransports is the transport matrix the failover table runs over:
// identical semantics on both sides is the transport contract.
var fleetTransports = []struct {
	name string
	mk   mkFleet
}{
	{"in-process", func(t *testing.T, cfg Config) *Fleet {
		f := New(cfg)
		t.Cleanup(f.Close)
		return f
	}},
	{"cross-process", func(t *testing.T, cfg Config) *Fleet {
		f, err := NewProcs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f
	}},
}

// TestFailoverScenarios is the failover edge-case table: each case breaks
// the fleet a different way and states what the router must still deliver.
// The whole table runs once per transport — in-process replicas and real
// spawned child processes must be indistinguishable to the router.
func TestFailoverScenarios(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, mk mkFleet)
	}{
		{"replica death mid-batch", func(t *testing.T, mk mkFleet) {
			f := mk(t, Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second})
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			// Both holders fail the next request at the transport level —
			// a crash mid-request; the router must retry to success and
			// charge once.
			for _, hi := range f.Holders(id) {
				f.InjectFailures(hi, 1)
			}
			var resp serve.QueryResponse
			code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 5), &resp)
			if code != http.StatusOK {
				t.Fatalf("query with injected crashes returned %d", code)
			}
			if got := f.ClientExposure("c1"); got != 5 {
				t.Fatalf("exposure after crash-retry = %d, want exactly 5", got)
			}
			if st := f.Stats(); st.Retries == 0 {
				t.Fatal("no retries recorded despite injected failures")
			}
		}},
		{"exactly-once charging under injected timeouts", func(t *testing.T, mk mkFleet) {
			f := mk(t, Config{Replicas: 3, ReplicationFactor: 2, Timeout: 60 * time.Millisecond})
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			// Every holder stalls past the per-attempt deadline once: the
			// first attempts time out, the abandoned handlers may still
			// charge their replica-local ledgers, and the router must
			// charge its own exactly once.
			for _, hi := range f.Holders(id) {
				f.InjectLatency(hi, 300*time.Millisecond, 1)
			}
			var resp serve.QueryResponse
			code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c2", 7), &resp)
			if code != http.StatusOK {
				t.Fatalf("query with injected timeouts returned %d", code)
			}
			if resp.ClientQueries != 7 {
				t.Fatalf("client_queries = %d, want 7", resp.ClientQueries)
			}
			if got := f.ClientExposure("c2"); got != 7 {
				t.Fatalf("router ledger = %d after timeout retries, want exactly 7 (double-charge?)", got)
			}
			if got := f.TotalExposure(); got != 7 {
				t.Fatalf("fleet total = %d, want 7", got)
			}
		}},
		{"retry after eject, probe reinstatement", func(t *testing.T, mk mkFleet) {
			f := mk(t, Config{Replicas: 2, ReplicationFactor: 2, EjectAfter: 2, ProbeAfter: 2,
				Timeout: 2 * time.Second, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			victim := f.Holders(id)[0]
			f.KillReplica(victim)
			// Enough traffic to hit the dead replica EjectAfter times.
			for i := 0; i < 6; i++ {
				var resp serve.QueryResponse
				code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c3", 1), &resp)
				if code != http.StatusOK {
					t.Fatalf("query %d during kill returned %d", i, code)
				}
			}
			if st := f.Stats(); st.Ejections == 0 {
				t.Fatal("dead replica was never ejected")
			}
			if err := f.RestartReplica(victim); err != nil {
				t.Fatal(err)
			}
			// The restarted replica rejoins only through a successful probe.
			var reinstated bool
			extra := int64(0)
			for i := 0; i < 20 && !reinstated; i++ {
				code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c3", 1), nil)
				if code != http.StatusOK {
					t.Fatalf("query after restart returned %d", code)
				}
				extra++
				reinstated = f.Stats().Reinstated > 0
			}
			if !reinstated {
				t.Fatal("restarted replica was never probed back into rotation")
			}
			if err := f.ReplicaAgreement(id); err != nil {
				t.Fatalf("post-restart agreement: %v", err)
			}
			// Every answered query — across kill, eject, probe — charged
			// exactly once.
			if got := f.ClientExposure("c3"); got != 6+extra {
				t.Fatalf("exposure = %d, want %d (one per answered query)", got, 6+extra)
			}
		}},
		{"exhausted replica set yields typed 503", func(t *testing.T, mk mkFleet) {
			f := mk(t, Config{Replicas: 2, ReplicationFactor: 2, EjectAfter: 1, ProbeAfter: 1000,
				Timeout: 2 * time.Second, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			f.KillReplica(0)
			f.KillReplica(1)
			var eb serve.ErrorBody
			code, hdr := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c4", 1), &eb)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("all-dead query returned %d, want 503", code)
			}
			if eb.Code != serve.CodeUnavailable {
				t.Fatalf("code = %q, want %q", eb.Code, serve.CodeUnavailable)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			if got := f.ClientExposure("c4"); got != 0 {
				t.Fatalf("failed request charged %d exposure", got)
			}
		}},
		{"saturated holders shed with typed 429", func(t *testing.T, mk mkFleet) {
			f := mk(t, Config{Replicas: 2, ReplicationFactor: 2, MaxInFlight: 1, Timeout: 10 * time.Second})
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			// Park one slow request on each holder, then a third must shed.
			for _, hi := range f.Holders(id) {
				f.InjectLatency(hi, 2*time.Second, 1)
			}
			done := make(chan int, 2)
			for i := 0; i < 2; i++ {
				go func(i int) {
					// Distinct clients give distinct body hashes, spreading
					// the two slow requests across both holders.
					code, _ := doJSON(t, h, http.MethodPost, "/query", nil,
						queryBody(id, fmt.Sprintf("slow%d", i), 1), nil)
					done <- code
				}(i)
			}
			// Wait until both replicas report an in-flight request.
			deadline := time.Now().Add(5 * time.Second)
			for {
				busy := 0
				for _, hi := range f.Holders(id) {
					if f.replicas[hi].inflight.Load() > 0 {
						busy++
					}
				}
				if busy == 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("slow requests never occupied both holders")
				}
				time.Sleep(5 * time.Millisecond)
			}
			var eb serve.ErrorBody
			code, hdr := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c5", 1), &eb)
			if code != http.StatusTooManyRequests {
				t.Fatalf("saturated query returned %d, want 429", code)
			}
			if eb.Code != serve.CodeOverloaded {
				t.Fatalf("code = %q, want %q", eb.Code, serve.CodeOverloaded)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if f.Stats().Shed == 0 {
				t.Fatal("shed counter not incremented")
			}
			for i := 0; i < 2; i++ {
				if code := <-done; code != http.StatusOK {
					t.Fatalf("parked request returned %d", code)
				}
			}
		}},
	}
	for _, tr := range fleetTransports {
		t.Run(tr.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) { tc.run(t, tr.mk) })
			}
		})
	}
}

func TestIdempotentReplay(t *testing.T) {
	f := New(Config{Replicas: 2, ReplicationFactor: 2})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	hdrs := map[string]string{"X-Idempotency-Key": "req-42"}
	var first, second serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", hdrs, queryBody(id, "c1", 3), &first); code != http.StatusOK {
		t.Fatalf("first send returned %d", code)
	}
	if code, _ := doJSON(t, h, http.MethodPost, "/query", hdrs, queryBody(id, "c1", 3), &second); code != http.StatusOK {
		t.Fatalf("replay returned %d", code)
	}
	if first.ClientQueries != 3 || second.ClientQueries != 3 {
		t.Fatalf("cumulative exposure %d then %d, want 3 both times (replay must not recharge)",
			first.ClientQueries, second.ClientQueries)
	}
	if got := f.ClientExposure("c1"); got != 3 {
		t.Fatalf("ledger = %d after replay, want 3", got)
	}
	// A fresh key is a fresh logical request and charges again.
	var third serve.QueryResponse
	doJSON(t, h, http.MethodPost, "/query", map[string]string{"X-Idempotency-Key": "req-43"},
		queryBody(id, "c1", 3), &third)
	if third.ClientQueries != 6 {
		t.Fatalf("new key cumulative = %d, want 6", third.ClientQueries)
	}
}

// incPublish is the incremental publication the insert-routing tests place.
func incPublish(seed int64) serve.PublishRequest {
	req := testPublish(seed)
	req.Method = serve.MethodIncremental
	return req
}

// insertRecords builds n deterministic medical records in both the JSON
// label encoding and the binary full-schema code encoding.
func insertRecords(rng *rand.Rand, n int) (recs []map[string]string, codes [][]uint16) {
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

// doRaw drives the router with a pre-encoded body (the binary frame path).
func doRaw(t *testing.T, h http.Handler, path, contentType string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// TestInsertFanOut: a routed insert batch reaches every live holder — the
// replicas stay digest-identical — and the typed rejections (unknown
// publication, non-incremental publication) relay through the router with
// the single-server bodies.
func TestInsertFanOut(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second})
	id, err := f.Publish(incPublish(7))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	rng := rand.New(rand.NewSource(7))

	total := 500
	for batch := 0; batch < 4; batch++ {
		recs, _ := insertRecords(rng, 20+batch*5)
		total += len(recs)
		var ins struct {
			Inserted     int `json:"inserted"`
			TotalRecords int `json:"total_records"`
		}
		code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
			map[string]any{"id": id, "records": recs, "wait": true}, &ins)
		if code != http.StatusOK {
			t.Fatalf("routed insert %d returned %d", batch, code)
		}
		if ins.Inserted != len(recs) || ins.TotalRecords != total {
			t.Fatalf("batch %d: inserted %d (want %d), total %d (want %d)",
				batch, ins.Inserted, len(recs), ins.TotalRecords, total)
		}
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("post-insert agreement: %v", err)
	}
	if st := f.Stats(); st.InsertsRouted != 4 {
		t.Fatalf("inserts_routed = %d, want 4", st.InsertsRouted)
	}

	// Unknown publication: typed 404, nothing logged.
	var eb serve.ErrorBody
	code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
		map[string]any{"id": "no-such-pub", "records": []map[string]string{{"a": "b"}}}, &eb)
	if code != http.StatusNotFound || eb.Code != serve.CodeNotFound {
		t.Fatalf("unknown-pub insert returned %d/%q, want 404/%q", code, eb.Code, serve.CodeNotFound)
	}

	// Non-incremental publication: the holders' deterministic 409 relays
	// verbatim and must not grow the mutation log.
	staticID, err := f.Publish(testPublish(9))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := insertRecords(rng, 3)
	code, _ = doJSON(t, h, http.MethodPost, "/insert", nil,
		map[string]any{"id": staticID, "records": recs, "wait": true}, &eb)
	if code != http.StatusConflict || eb.Code != serve.CodeNotIncremental {
		t.Fatalf("non-incremental insert returned %d/%q, want 409/%q", code, eb.Code, serve.CodeNotIncremental)
	}
	if st := f.Stats(); st.InsertsRouted != 4 {
		t.Fatalf("rejected insert grew inserts_routed to %d", st.InsertsRouted)
	}
	if err := f.ReplicaAgreement(staticID); err != nil {
		t.Fatalf("static publication agreement after rejected insert: %v", err)
	}
}

// TestInsertRestartReplaysMutationLog: a holder that dies misses insert
// batches and refreshes; its restart replays the publication's mutation log
// in order, so the rebuilt replica is digest-identical to the survivors.
func TestInsertRestartReplaysMutationLog(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second})
	id, err := f.Publish(incPublish(11))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	rng := rand.New(rand.NewSource(11))
	insert := func(n int) {
		t.Helper()
		recs, _ := insertRecords(rng, n)
		code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
			map[string]any{"id": id, "records": recs, "wait": true}, nil)
		if code != http.StatusOK {
			t.Fatalf("insert returned %d", code)
		}
	}

	// Interleave mutations while everyone is alive…
	insert(30)
	if err := f.Refresh(id); err != nil {
		t.Fatal(err)
	}
	insert(25)

	// …then kill a holder and keep mutating: the victim misses two inserts
	// and a refresh.
	victim := f.Holders(id)[0]
	f.KillReplica(victim)
	insert(40)
	if err := f.Refresh(id); err != nil {
		t.Fatal(err)
	}
	insert(15)

	if err := f.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("post-restart agreement (mutation-log replay): %v", err)
	}
}

// TestBinaryInsertRouted: the binary firehose frame routes through the
// fleet — fanned out byte-for-byte, logged, and replayed on restart in its
// original encoding.
func TestBinaryInsertRouted(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second})
	id, err := f.Publish(incPublish(13))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	schema := datagen.MedicalSchema()
	rng := rand.New(rand.NewSource(13))

	victim := f.Holders(id)[0]
	total := 500
	for batch := 0; batch < 3; batch++ {
		if batch == 2 {
			f.KillReplica(victim)
		}
		_, codes := insertRecords(rng, 20)
		total += len(codes)
		req := wire.InsertReq{ID: []byte(id), Wait: true, NAttrs: schema.NumAttrs(), Records: codes}
		code, body := doRaw(t, h, "/insert", wire.ContentType, req.Append(nil))
		if code != http.StatusOK {
			t.Fatalf("binary insert %d returned %d: %s", batch, code, body)
		}
		var resp wire.InsertResp
		if err := resp.Decode(body); err != nil {
			t.Fatalf("binary insert %d: decoding response: %v", batch, err)
		}
		if int(resp.Inserted) != len(codes) || int(resp.TotalRecords) != total {
			t.Fatalf("batch %d: inserted %d (want %d), total %d (want %d)",
				batch, resp.Inserted, len(codes), resp.TotalRecords, total)
		}
	}
	if err := f.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("post-restart agreement (binary replay): %v", err)
	}
}

// TestInsertIdempotentReplay: a client resend of an insert with the same
// idempotency key must not double-apply the batch.
func TestInsertIdempotentReplay(t *testing.T) {
	f := New(Config{Replicas: 2, ReplicationFactor: 2, Timeout: 2 * time.Second})
	id, err := f.Publish(incPublish(17))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	rng := rand.New(rand.NewSource(17))
	recs, _ := insertRecords(rng, 10)
	body := map[string]any{"id": id, "records": recs, "wait": true}
	hdrs := map[string]string{"X-Idempotency-Key": "ins-1"}

	var first, second struct {
		TotalRecords int `json:"total_records"`
	}
	if code, _ := doJSON(t, h, http.MethodPost, "/insert", hdrs, body, &first); code != http.StatusOK {
		t.Fatalf("first send returned %d", code)
	}
	if code, _ := doJSON(t, h, http.MethodPost, "/insert", hdrs, body, &second); code != http.StatusOK {
		t.Fatalf("replay returned %d", code)
	}
	if first.TotalRecords != 510 || second.TotalRecords != 510 {
		t.Fatalf("total_records %d then %d, want 510 both times (replay must not re-apply)",
			first.TotalRecords, second.TotalRecords)
	}
	if st := f.Stats(); st.InsertsRouted != 1 {
		t.Fatalf("inserts_routed = %d after idempotent replay, want 1", st.InsertsRouted)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("agreement after replay: %v", err)
	}
}

func TestRefreshAndRestartGenerationReplay(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refresh(id); err != nil {
		t.Fatal(err)
	}
	if err := f.Refresh(id); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("post-refresh agreement: %v", err)
	}
	victim := f.Holders(id)[0]
	f.KillReplica(victim)
	// A refresh while one holder is down advances the survivors; the
	// restart must replay the missed generation.
	if err := f.Refresh(id); err != nil {
		t.Fatal(err)
	}
	if err := f.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("post-restart agreement (generation replay): %v", err)
	}
}

func TestVerificationAgreesAcrossReplicas(t *testing.T) {
	// Verification samples every VerifyEvery-th settled request, whatever
	// its bytes, so one body resent 3·VerifyEvery times is verified exactly
	// 3 times; with bit-identical replicas the mismatch counter must stay
	// zero.
	const every = 16
	f := New(Config{Replicas: 3, ReplicationFactor: 2, VerifyEvery: every})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	for i := 0; i < 3*every; i++ {
		if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "v", 2), nil); code != http.StatusOK {
			t.Fatalf("query %d returned %d", i, code)
		}
	}
	st := f.Stats()
	if st.Verified != 3 {
		t.Fatalf("one body sent %d times was verified %d times, want 3", 3*every, st.Verified)
	}
	if st.VerifyMismatches != 0 {
		t.Fatalf("%d verification mismatches across bit-identical replicas", st.VerifyMismatches)
	}
}

// TestVerificationSkipsRacingInserts races routed reads against routed
// inserts with every answer sampled. Inserts fan out holder by holder, so a
// read answered by a holder after batch k and replayed on one that has not
// applied it yet differs without any fault; verification must not count
// such a read. The holders must agree once the inserts are done, and every
// read after that must be verified.
func TestVerificationSkipsRacingInserts(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2, VerifyEvery: 1, Serve: serve.Config{BudgetQuota: -1}})
	id, err := f.Publish(incPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	read := func(client string) {
		if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, condQueryBody(id, client, 4), nil); code != http.StatusOK {
			t.Errorf("query returned %d", code)
		}
	}
	const inserts, readers, reads = 200, 2, 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < inserts; i++ {
			recs, _ := insertRecords(rng, 5)
			if code, _ := doJSON(t, h, http.MethodPost, "/insert", nil, map[string]any{"id": id, "records": recs}, nil); code != http.StatusOK {
				t.Errorf("insert returned %d", code)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				read(fmt.Sprintf("r%d", g))
			}
		}(g)
	}
	wg.Wait()
	st := f.Stats()
	if st.VerifyMismatches != 0 {
		t.Fatalf("%d of %d verified reads reported a mismatch", st.VerifyMismatches, st.Verified)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		read("quiet")
	}
	if after := f.Stats(); after.Verified != st.Verified+4 || after.VerifyMismatches != 0 {
		t.Fatalf("4 reads after the inserts: verified %d -> %d, mismatches %d; want every one verified and none mismatched",
			st.Verified, after.Verified, after.VerifyMismatches)
	}
}
