package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeJSON is WriteJSON's body for v.
func encodeJSON(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", jsonIndent)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ledgerBody is one served JSON body and the client and ledger it was
// encoded with.
type ledgerBody struct {
	body   []byte
	client string
	led    Ledger
}

// ledgerBodies are served JSON bodies of both batch endpoints, with and
// without the optional ledger flags and with clients JSON must escape.
func ledgerBodies(t testing.TB) []ledgerBody {
	var out []ledgerBody
	for _, client := range []string{"c1", `a<b&"c`, "tab\there\x00 ", "bad\xffutf8"} {
		for _, led := range []Ledger{{ClientQueries: 3, BudgetRemaining: -1}, {ClientQueries: 60000, BudgetRemaining: 7, BudgetExact: true, ExposureWarning: true}} {
			out = append(out,
				ledgerBody{encodeJSON(t, QueryResponse{ID: "pub-1", Answers: []QueryAnswer{{Count: 4, Estimate: 3.25}, {Error: `no "x"`}},
					Charged: 2, ServeMicros: 17, Client: client, Ledger: led}), client, led},
				ledgerBody{encodeJSON(t, ReconstructResponse{ID: "pub-1", Results: []Reconstruction{{Size: 9, Freqs: map[string]float64{"Flu": 0.5, "<HIV>": -1e-9}}, {Error: "empty"}},
					Charged: 12, ServeMicros: 40, Client: client, Ledger: led}), client, led})
		}
	}
	return out
}

// TestReadJSONLedger pins the reader to the served layout: it locates the
// charge and the group of every served body, splicing a body's own client
// and ledger back reproduces it byte for byte, and any other layout is
// refused.
func TestReadJSONLedger(t *testing.T) {
	for _, lb := range ledgerBodies(t) {
		body := lb.body
		at, err := ReadJSONLedger(body)
		if err != nil {
			t.Fatalf("served body refused: %v\n%s", err, body)
		}
		var doc struct {
			Charged int64 `json:"charged"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if at.Charged != doc.Charged || !bytes.HasPrefix(body[at.Group:], []byte(`"client": `)) ||
			!bytes.HasSuffix(body[:at.Answers], []byte("]")) || string(body[at.End:]) != "\n}\n" {
			t.Fatalf("located charge %d, answers to %d, group %q in\n%s", at.Charged, at.Answers, body[at.Group:at.End], body)
		}
		if out := SpliceJSONLedger(body, at, lb.client, lb.led); !bytes.Equal(out, body) {
			t.Fatalf("splicing a body's own ledger changed it:\n%s\n%s", body, out)
		}
	}

	served := string(ledgerBodies(t)[0].body)
	var sorted map[string]any
	if err := json.Unmarshal([]byte(served), &sorted); err != nil {
		t.Fatal(err)
	}
	resorted, err := json.MarshalIndent(sorted, "", jsonIndent)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"re-sorted keys":       string(resorted) + "\n",
		"truncated":            served[:len(served)-3],
		"trailing bytes":       served + "{}",
		"compact":              `{"id":"p","answers":[],"charged":1,"serve_us":1,"client":"c","client_queries":1,"budget_remaining":1}`,
		"zero charge":          strings.Replace(served, `"charged": 2`, `"charged": 0`, 1),
		"fractional charge":    strings.Replace(served, `"charged": 2`, `"charged": 2.5`, 1),
		"unknown group member": strings.Replace(served, "\n}\n", ",\n  \"extra\": 1\n}\n", 1),
		"bad answer":           strings.Replace(served, `3.25`, `3.25.1`, 1),
		"unescaped control":    strings.Replace(served, `no \"x\"`, "no\tx", 1),
		"empty":                "",
	} {
		if at, err := ReadJSONLedger([]byte(body)); err == nil {
			t.Errorf("%s: accepted, charge %d", name, at.Charged)
		}
	}
}

// FuzzJSONLedger holds the reader and the splicer to their contract on
// arbitrary bytes: neither panics, and a body the reader accepts splices
// into valid JSON that decodes to the new ledger, with the charge and every
// byte of the id and answers or results unchanged.
func FuzzJSONLedger(f *testing.F) {
	for _, lb := range ledgerBodies(f) {
		f.Add(lb.body, "fuzz", int64(5), int64(-1), false, true)
	}
	f.Add([]byte(`{"id":"p"}`), `a<b&"c`, int64(0), int64(0), true, false)
	f.Fuzz(func(t *testing.T, body []byte, client string, total, remaining int64, exact, warn bool) {
		at, err := ReadJSONLedger(body)
		if err != nil {
			return
		}
		led := Ledger{ClientQueries: total, BudgetRemaining: remaining, BudgetExact: exact, ExposureWarning: warn}
		out := SpliceJSONLedger(body, at, client, led)
		type head struct {
			ID      json.RawMessage `json:"id"`
			Answers json.RawMessage `json:"answers"`
			Results json.RawMessage `json:"results"`
		}
		var in, got head
		var doc struct {
			Charged int64  `json:"charged"`
			Client  string `json:"client"`
			Ledger
		}
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("accepted body does not decode: %v\n%q", err, body)
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("spliced body does not decode: %v\n%q", err, out)
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("spliced ledger does not decode: %v\n%q", err, out)
		}
		var wantClient string
		if err := json.Unmarshal(encodeJSON(t, client), &wantClient); err != nil {
			t.Fatal(err)
		}
		if doc.Charged != at.Charged || doc.Client != wantClient || doc.Ledger != led {
			t.Fatalf("spliced ledger %+v, want charge %d client %q %+v\n%q", doc, at.Charged, wantClient, led, out)
		}
		if !bytes.Equal(in.ID, got.ID) || !bytes.Equal(in.Answers, got.Answers) || !bytes.Equal(in.Results, got.Results) {
			t.Fatalf("splice changed the answers\n%q\n%q", body, out)
		}
		if !bytes.Equal(out[:at.Answers], body[:at.Answers]) {
			t.Fatal("splice changed the replica-determined bytes")
		}
	})
}
