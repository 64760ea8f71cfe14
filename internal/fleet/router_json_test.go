package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/reconpriv/reconpriv/internal/budget"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// recorder wraps a replica's transport and keeps a copy of the last body
// the replica returned, so a test can hold the relayed body against it.
type recorder struct {
	transport
	mu   sync.Mutex
	last []byte
}

func (r *recorder) do(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error) {
	resp, err := r.transport.do(ctx, method, path, header, body)
	if err == nil {
		r.mu.Lock()
		r.last = append([]byte(nil), resp.body...)
		r.mu.Unlock()
	}
	return resp, err
}

// reconstructBody builds a /reconstruct body of one Job=Engineer subset.
func reconstructBody(id, client string) map[string]any {
	return map[string]any{"id": id, "client": client, "wait": true,
		"subsets": [][]serve.CondJSON{{{Attr: "Job", Value: "Engineer"}}}}
}

// TestRoutedJSONBytes pins what the router does to a JSON /query and
// /reconstruct body. Outside the five router-owned values — client,
// client_queries, budget_remaining, budget_exact, exposure_warning — the
// routed body is the replica's, byte for byte; those five decode to the
// router's ledger. The rows cover the budget enforced and disabled, the
// exposure warning crossed and not, exact and sketched counts, and a
// client JSON must escape.
func TestRoutedJSONBytes(t *testing.T) {
	cases := []struct {
		name        string
		serve       serve.Config
		client      string
		n           int // queries in the /query batch
		exact, warn bool
	}{
		{"budget disabled", serve.Config{BudgetQuota: -1}, "c1", 3, true, false},
		{"budget enforced, sketched counts", serve.Config{BudgetQuota: 1000, BudgetMaxTracked: 1}, "c1", 3, false, false},
		{"budget enforced, warning crossed", serve.Config{BudgetQuota: 100, ExposureWarn: 10}, "c1", 60, true, true},
		{"client JSON must escape", serve.Config{BudgetQuota: -1, ExposureWarn: 2}, `a<b&"c`, 3, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(Config{Replicas: 1, ReplicationFactor: 1, Serve: tc.serve})
			t.Cleanup(f.Close)
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			rep := f.replicas[0]
			rec := &recorder{transport: rep.transport()}
			rep.mu.Lock()
			rep.tr = rec
			rep.mu.Unlock()
			h := f.Handler()
			// An earlier client takes the one exact slot of the sketched row.
			if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "first", 1), nil); code != http.StatusOK {
				t.Fatalf("first query returned %d", code)
			}
			for _, rq := range []struct {
				path  string
				body  any
				class budget.Class
			}{
				{"/query", queryBody(id, tc.client, tc.n), budget.ClassQuery},
				{"/reconstruct", reconstructBody(id, tc.client), budget.ClassReconstruct},
			} {
				buf, err := json.Marshal(rq.body)
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(buf)))
				if w.Code != http.StatusOK {
					t.Fatalf("%s returned %d: %s", rq.path, w.Code, w.Body.Bytes())
				}
				got := w.Body.Bytes()
				rec.mu.Lock()
				replica := rec.last
				rec.mu.Unlock()
				// The group is the tail from the last top-level client member,
				// found here without serve's reader.
				group := []byte("\n  \"client\": ")
				g, r := bytes.LastIndex(got, group), bytes.LastIndex(replica, group)
				if g < 0 || r < 0 || !bytes.Equal(got[:g], replica[:r]) || !bytes.HasSuffix(got, []byte("\n}\n")) {
					t.Fatalf("%s: routed body is not the replica's outside the ledger group\nrouted:\n%s\nreplica:\n%s", rq.path, got, replica)
				}
				var doc struct {
					Client string `json:"client"`
					serve.Ledger
				}
				if err := json.Unmarshal(got, &doc); err != nil {
					t.Fatal(err)
				}
				want := serve.LedgerOf(f.Budget().Precheck(tc.client, id, rq.class), tc.serve.ExposureWarn)
				if doc.Client != tc.client || doc.Ledger != want {
					t.Fatalf("%s: routed ledger %q %+v, want %q %+v", rq.path, doc.Client, doc.Ledger, tc.client, want)
				}
				if doc.BudgetExact != tc.exact || doc.ExposureWarning != tc.warn {
					t.Fatalf("%s: budget_exact %v exposure_warning %v, want %v %v", rq.path, doc.BudgetExact, doc.ExposureWarning, tc.exact, tc.warn)
				}
			}
		})
	}
}

// rewriting serves h and passes every 200 /query and /reconstruct body
// through rewrite, as a peer running another build, or a connection that
// drops mid-body, would deliver it.
func rewriting(h http.Handler, rewrite func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" && r.URL.Path != "/reconstruct" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = rewrite(body)
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestUnreadableChargeFailsClosed attaches peers whose 200 /query and
// /reconstruct bodies carry no charge the router can read: JSON with its
// keys re-sorted, or a frame cut short. Such a response is a failed
// attempt. With a sound holder left the client gets that holder's answer,
// charged once; with none, the typed 503. No unreadable body reaches the
// client, and the router's ledger never undercounts what did.
func TestUnreadableChargeFailsClosed(t *testing.T) {
	resort := func(body []byte) []byte {
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Error(err)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Error(err)
		}
		return append(out, '\n')
	}
	truncate := func(body []byte) []byte { return body[:len(body)/2] }
	frame := wire.ReconstructReq{Subsets: [][]wire.Cond{{{Attr: 1, Value: 0}}}, Wait: true}
	for _, tc := range []struct {
		name    string
		ct      string
		rewrite func([]byte) []byte
		body    func(id, client, path string) []byte
	}{
		{"json keys re-sorted", "application/json", resort, func(id, client, path string) []byte {
			body := queryBody(id, client, 2)
			if path == "/reconstruct" {
				body = reconstructBody(id, client)
			}
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"frame truncated", wire.ContentType, truncate, func(id, client, path string) []byte {
			if path == "/reconstruct" {
				m := frame
				m.ID, m.Client = []byte(id), []byte(client)
				return m.Append(nil)
			}
			return binaryQueryFrame(id, client, 2)
		}},
	} {
		for _, sound := range []int{0, 1} {
			var peers []string
			for i := 0; i < 2; i++ {
				h := serve.New(serve.Config{}).Handler()
				if i >= sound {
					h = rewriting(h, tc.rewrite)
				}
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				peers = append(peers, ts.URL)
			}
			f, err := NewPeers(Config{ReplicationFactor: 2}, peers)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			id, err := f.Publish(testPublish(1))
			if err != nil {
				t.Fatal(err)
			}
			h := f.Handler()
			for i, path := range []string{"/query", "/reconstruct", "/query", "/reconstruct"} {
				client := string(rune('a' + i))
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.body(id, client, path)))
				req.Header.Set("Content-Type", tc.ct)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				got := f.ClientExposure(client)
				if sound == 0 {
					if w.Code != http.StatusServiceUnavailable || serve.DecodeErrorCode(w.Code, w.Body.Bytes()) != serve.CodeUnavailable || got != 0 {
						t.Fatalf("%s, no sound holder, %s: %d %s, ledger %d; want the typed 503 and no charge", tc.name, path, w.Code, w.Body.Bytes(), got)
					}
					continue
				}
				if w.Code != http.StatusOK {
					t.Fatalf("%s, one sound holder, %s: %d %s", tc.name, path, w.Code, w.Body.Bytes())
				}
				var charged int64
				if tc.ct == wire.ContentType {
					led, err := wire.ReadLedger(w.Body.Bytes())
					if err != nil {
						t.Fatalf("%s: relayed frame: %v", tc.name, err)
					}
					charged = int64(led.Charged)
				} else if at, err := serve.ReadJSONLedger(w.Body.Bytes()); err != nil {
					t.Fatalf("%s: relayed body: %v\n%s", tc.name, err, w.Body.Bytes())
				} else {
					charged = at.Charged
				}
				if got != charged {
					t.Fatalf("%s, %s: router ledger holds %d for a relayed charge of %d", tc.name, path, got, charged)
				}
			}
		}
	}
}
