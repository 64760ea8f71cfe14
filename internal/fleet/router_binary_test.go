package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// doBinary drives the router handler in-process with a wire frame.
func doBinary(t *testing.T, h http.Handler, path string, headers map[string]string, frame []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// binaryQueryFrame builds a /query frame of n identical single-condition
// queries — Job=Engineer (code 0), SA Flu (code 0) — matching
// condQueryBody.
func binaryQueryFrame(id, client string, n int) []byte {
	m := wire.QueryReq{ID: []byte(id), Client: []byte(client), Wait: true}
	for i := 0; i < n; i++ {
		m.Queries = append(m.Queries, wire.Query{SA: 0, Conds: []wire.Cond{{Attr: 1, Value: 0}}})
	}
	return m.Append(nil)
}

// condQueryBody is binaryQueryFrame's JSON twin, speaking labels.
func condQueryBody(id, client string, n int) map[string]any {
	qs := make([]serve.QueryJSON, n)
	for i := range qs {
		qs[i] = serve.QueryJSON{Conds: []serve.CondJSON{{Attr: "Job", Value: "Engineer"}}, SA: "Flu"}
	}
	return map[string]any{"id": id, "client": client, "queries": qs, "wait": true}
}

// TestRoutedBinaryQuery routes binary frames through the fleet: answers
// must match the JSON route bit for bit, the router's authoritative ledger
// must be patched into the frame, and digest verification across replicas
// must hold at VerifyEvery=1.
func TestRoutedBinaryQuery(t *testing.T) {
	f := New(Config{Replicas: 3, ReplicationFactor: 2, VerifyEvery: 1})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	// JSON route first: its per-answer content is the reference. The JSON
	// batch speaks labels and the binary one original codes — the same
	// queries either way.
	var jresp serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, condQueryBody(id, "carol", 4), &jresp); code != http.StatusOK {
		t.Fatalf("json route returned %d", code)
	}

	code, body := doBinary(t, h, "/query", nil, binaryQueryFrame(id, "carol", 4))
	if code != http.StatusOK {
		t.Fatalf("binary route returned %d: %s", code, body)
	}
	var bresp wire.QueryResp
	if err := bresp.Decode(body); err != nil {
		t.Fatalf("decoding routed binary response: %v", err)
	}
	if len(bresp.Answers) != len(jresp.Answers) {
		t.Fatalf("%d binary answers, %d json", len(bresp.Answers), len(jresp.Answers))
	}
	for i := range bresp.Answers {
		ba, ja := bresp.Answers[i], jresp.Answers[i]
		if ba.Err != nil || ja.Error != "" {
			t.Fatalf("answer %d errored: bin=%q json=%q", i, ba.Err, ja.Error)
		}
		if int(ba.Count) != ja.Count || math.Float64bits(ba.Estimate) != math.Float64bits(ja.Estimate) {
			t.Fatalf("answer %d: bin (%d, %v) vs json (%d, %v)", i, ba.Count, ba.Estimate, ja.Count, ja.Estimate)
		}
	}

	// The router, not the replica, owns the ledger: 4 JSON + 4 binary
	// queries by the same client must accumulate in the patched frame.
	if bresp.Charged != 4 {
		t.Fatalf("binary charged %d, want 4", bresp.Charged)
	}
	if bresp.ClientQueries != 8 {
		t.Fatalf("cumulative exposure %d after 8 routed queries, want 8", bresp.ClientQueries)
	}
	if string(bresp.Client) != "carol" {
		t.Fatalf("patched client %q, want carol", bresp.Client)
	}

	st := f.Stats()
	if st.Verified == 0 {
		t.Fatal("no binary answers were verified at VerifyEvery=1")
	}
	if st.VerifyMismatches != 0 {
		t.Fatalf("%d verification mismatches across bit-identical replicas", st.VerifyMismatches)
	}
}

// TestRoutedBinaryReconstruct covers the second binary endpoint end to end,
// including the subsets×SADomain exposure charge surviving the patch.
func TestRoutedBinaryReconstruct(t *testing.T) {
	f := New(Config{Replicas: 2, ReplicationFactor: 2, VerifyEvery: 1})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	m := wire.ReconstructReq{ID: []byte(id), Client: []byte("adv"), Wait: true}
	m.Subsets = [][]wire.Cond{
		{{Attr: 1, Value: 0}},
		{{Attr: 0, Value: 1}, {Attr: 1, Value: 2}},
	}
	code, body := doBinary(t, h, "/reconstruct", nil, m.Append(nil))
	if code != http.StatusOK {
		t.Fatalf("binary reconstruct returned %d: %s", code, body)
	}
	var resp wire.ReconstructResp
	if err := resp.Decode(body); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	for i := range resp.Results {
		if resp.Results[i].Err != nil {
			t.Fatalf("subset %d errored: %q", i, resp.Results[i].Err)
		}
	}
	// Medical SA domain is 10: 2 subsets charge 20.
	if resp.Charged != 20 {
		t.Fatalf("charged %d, want 20", resp.Charged)
	}
	if resp.ClientQueries != 20 {
		t.Fatalf("cumulative exposure %d, want 20", resp.ClientQueries)
	}
	st := f.Stats()
	if st.VerifyMismatches != 0 {
		t.Fatalf("%d verification mismatches", st.VerifyMismatches)
	}
}

// TestRoutedBinaryErrors pins the router-level failure surface for frames.
func TestRoutedBinaryErrors(t *testing.T) {
	f := New(Config{Replicas: 2, ReplicationFactor: 2})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	// A body that is not a frame fails at the router's head peek.
	if code, body := doBinary(t, h, "/query", nil, []byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("junk frame returned %d: %s", code, body)
	}
	// An unknown publication is rejected before any replica is tried.
	if code, _ := doBinary(t, h, "/query", nil, binaryQueryFrame("pub-none", "c", 1)); code != http.StatusNotFound {
		t.Fatal("unknown publication not rejected")
	}
	// A frame that peeks fine but fails replica-side decoding relays the
	// replica's typed JSON rejection verbatim.
	frame := binaryQueryFrame(id, "c", 1)
	frame = append(frame, 0xEE)
	n := uint32(len(frame) - wire.HeaderSize)
	frame[4], frame[5], frame[6], frame[7] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	code, body := doBinary(t, h, "/query", nil, frame)
	if code != http.StatusBadRequest {
		t.Fatalf("trailing-byte frame returned %d: %s", code, body)
	}
	if got := serve.DecodeErrorCode(code, body); got != serve.CodeBadRequest {
		t.Fatalf("replica rejection decoded as %q", got)
	}

	// Idempotent replay works for binary bodies: the second send returns
	// the stored frame without charging the ledger again.
	hdrs := map[string]string{"X-Idempotency-Key": "bin-key-1"}
	code, first := doBinary(t, h, "/query", hdrs, binaryQueryFrame(id, "ida", 3))
	if code != http.StatusOK {
		t.Fatalf("first idempotent send returned %d", code)
	}
	code, second := doBinary(t, h, "/query", hdrs, binaryQueryFrame(id, "ida", 3))
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("replay differs (code %d)", code)
	}
	var resp wire.QueryResp
	if err := resp.Decode(second); err != nil {
		t.Fatal(err)
	}
	if resp.ClientQueries != 3 {
		t.Fatalf("replayed exposure %d, want 3 (no double charge)", resp.ClientQueries)
	}
}

// TestRoutedBodyErrors pins the request-reading contract on both surfaces,
// the single server and the router, in both encodings: a body with bytes
// after the request is a 400, a body past serve.MaxBodyBytes is a 413, and
// the client header, in any letter case, names the client ahead of the
// body's client.
func TestRoutedBodyErrors(t *testing.T) {
	srv := serve.New(serve.Config{})
	f := New(Config{Replicas: 2, ReplicationFactor: 2})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Publish(testPublish(1), true); err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(condQueryBody(id, "c", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Zeroed pages: the oversized body costs the client no resident memory.
	huge := make([]byte, serve.MaxBodyBytes+1)
	cases := []struct {
		name   string
		ct     string
		body   []byte
		header string // client header name, sent with the value "hdr"
		want   int
		code   serve.ErrorCode // of a rejection
		client string          // of a success
	}{
		{"json trailing bytes", "application/json", append(jsonBody, []byte(` {"id":"x"}`)...), "", http.StatusBadRequest, serve.CodeBadRequest, ""},
		{"binary trailing bytes", wire.ContentType, append(binaryQueryFrame(id, "c", 1), 0xEE), "", http.StatusBadRequest, serve.CodeBadRequest, ""},
		{"json over-limit body", "application/json", huge, "", http.StatusRequestEntityTooLarge, serve.CodeTooLarge, ""},
		{"binary over-limit body", wire.ContentType, huge, "", http.StatusRequestEntityTooLarge, serve.CodeTooLarge, ""},
		{"json client header", "application/json", jsonBody, "x-CLIENT-id", http.StatusOK, "", "hdr"},
		{"binary client header", wire.ContentType, binaryQueryFrame(id, "c", 1), "X-CLIENT-ID", http.StatusOK, "", "hdr"},
	}
	for _, tc := range cases {
		for _, s := range []struct {
			name string
			h    http.Handler
		}{{"serve", srv.Handler()}, {"fleet", f.Handler()}} {
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.ct)
			if tc.header != "" {
				req.Header.Set(tc.header, "hdr")
			}
			w := httptest.NewRecorder()
			s.h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Errorf("%s on %s: status %d, want %d (%s)", tc.name, s.name, w.Code, tc.want, w.Body.Bytes())
				continue
			}
			if w.Code == http.StatusOK {
				var qr wire.QueryResp
				var jr serve.QueryResponse
				if qr.Decode(w.Body.Bytes()) == nil {
					jr.Client = string(qr.Client)
				} else if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil {
					t.Fatal(err)
				}
				if jr.Client != tc.client {
					t.Errorf("%s on %s: client %q, want %q", tc.name, s.name, jr.Client, tc.client)
				}
			} else if got := serve.DecodeErrorCode(w.Code, w.Body.Bytes()); got != tc.code {
				t.Errorf("%s on %s: code %q, want %q", tc.name, s.name, got, tc.code)
			}
		}
	}
}
