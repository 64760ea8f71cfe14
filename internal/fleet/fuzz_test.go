package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// FuzzBatchBodies drives arbitrary bodies through the three batch endpoints
// (/query, /reconstruct, /insert) under both content types, on both
// surfaces: a single serve.Server and an in-process fleet router, each
// holding one small medical publication and one small incremental one.
// Every response must be a 200 that decodes in the request's encoding or a
// typed JSON ErrorBody whose code belongs to the serve taxonomy — never a
// panic, never a 5xx. When both surfaces answer a /query or /reconstruct
// with 200, the bytes the replica alone determines (answerBytes) must be
// equal: the router relays them untouched. The seed corpus is the wire
// golden frames plus one valid body per endpoint and encoding.
func FuzzBatchBodies(f *testing.F) {
	cfg := serve.Config{BudgetQuota: -1}
	srv := serve.New(cfg)
	fl := New(Config{Replicas: 2, ReplicationFactor: 2, Serve: cfg})
	f.Cleanup(fl.Close)
	med := serve.PublishRequest{Dataset: serve.DatasetMedical, Size: 400, Seed: 1}
	inc := serve.PublishRequest{Dataset: serve.DatasetMedical, Size: 300, Seed: 1, Method: serve.MethodIncremental}
	var ids []string
	for _, req := range []serve.PublishRequest{med, inc} {
		if _, _, err := srv.Publish(req, true); err != nil {
			f.Fatal(err)
		}
		id, err := fl.Publish(req)
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
	}
	medID, incID := ids[0], ids[1]

	for _, name := range []string{"query_req", "query_resp", "reconstruct_req", "reconstruct_resp", "insert_req", "insert_resp"} {
		frame, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	male := []serve.CondJSON{{Attr: "Gender", Value: "Male"}}
	for _, body := range []any{
		map[string]any{"id": medID, "client": "fuzz", "queries": []serve.QueryJSON{{Conds: male, SA: "Flu"}}},
		map[string]any{"id": medID, "client": "fuzz", "subsets": [][]serve.CondJSON{male}, "clamp": true},
		map[string]any{"id": incID, "records": []map[string]string{{"Gender": "Male", "Job": "Engineer", "Disease": "Flu"}}},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	cond := []wire.Cond{{Attr: 0, Value: 0}}
	f.Add((&wire.QueryReq{ID: []byte(medID), Client: []byte("fuzz"), Queries: []wire.Query{{SA: 1, Conds: cond}}}).Append(nil))
	f.Add((&wire.ReconstructReq{ID: []byte(medID), Client: []byte("fuzz"), Subsets: [][]wire.Cond{cond}}).Append(nil))
	f.Add((&wire.InsertReq{ID: []byte(incID), NAttrs: 3, Records: [][]uint16{{0, 1, 2}}}).Append(nil))

	surfaces := []struct {
		name string
		h    http.Handler
	}{{"serve", srv.Handler()}, {"fleet", fl.Handler()}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/reconstruct", "/insert"} {
			for _, ct := range []string{"application/json", wire.ContentType} {
				var ok [][]byte
				for _, s := range surfaces {
					req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
					req.Header.Set("Content-Type", ct)
					w := httptest.NewRecorder()
					s.h.ServeHTTP(w, req)
					if err := checkBatchResponse(path, ct, w); err != nil {
						t.Fatalf("%s %s (%s): %v\nbody %q\nresponse %d %q", s.name, path, ct, err, body, w.Code, w.Body.Bytes())
					}
					if w.Code == http.StatusOK && path != "/insert" {
						ok = append(ok, w.Body.Bytes())
					}
				}
				if len(ok) == len(surfaces) {
					a, aok := answerBytes(ok[0])
					b, bok := answerBytes(ok[1])
					if !aok || !bok || !bytes.Equal(a, b) {
						t.Fatalf("%s (%s): answers differ between serve and fleet\nbody %q\nserve %q\nfleet %q", path, ct, body, ok[0], ok[1])
					}
				}
			}
		}
	})
}

// checkBatchResponse holds one batch response to the contract above.
func checkBatchResponse(path, ct string, w *httptest.ResponseRecorder) error {
	body := w.Body.Bytes()
	got := w.Header().Get("Content-Type")
	if w.Code >= 500 {
		return fmt.Errorf("server error")
	}
	if w.Code != http.StatusOK {
		var eb serve.ErrorBody
		if got != "application/json" || json.Unmarshal(body, &eb) != nil {
			return fmt.Errorf("rejection is not the JSON ErrorBody")
		}
		if !knownCode(eb.Code) {
			return fmt.Errorf("untyped error code %q", eb.Code)
		}
		return nil
	}
	if got != ct {
		return fmt.Errorf("success content type %q", got)
	}
	var err error
	if ct == wire.ContentType {
		switch path {
		case "/query":
			err = new(wire.QueryResp).Decode(body)
		case "/reconstruct":
			err = new(wire.ReconstructResp).Decode(body)
		default:
			err = new(wire.InsertResp).Decode(body)
		}
	} else {
		var v any = &struct {
			Inserted int `json:"inserted"`
		}{}
		switch path {
		case "/query":
			v = new(serve.QueryResponse)
		case "/reconstruct":
			v = new(serve.ReconstructResponse)
		}
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("success body does not decode: %v", err)
	}
	return nil
}

// knownCode reports whether c is one of the codes serve's errors.go
// declares.
func knownCode(c serve.ErrorCode) bool {
	switch c {
	case serve.CodeBadRequest, serve.CodeMethodNotAllowed, serve.CodeNotFound, serve.CodeTooLarge,
		serve.CodeBuilding, serve.CodeRebuilding, serve.CodeBuildFailed, serve.CodeNotIncremental,
		serve.CodeNoGroups, serve.CodeCapacity, serve.CodeDraining, serve.CodeBudgetExhausted,
		serve.CodeInternal, serve.CodeUnavailable, serve.CodeOverloaded, serve.CodeUnsupported:
		return true
	}
	return false
}
