package serve

import (
	"net/http"
	"testing"
)

// TestErrorTaxonomy drives every taxonomy path a router depends on: each
// failure must carry its stable code, the legacy error field, and — for
// retryable codes — a Retry-After header.
func TestErrorTaxonomy(t *testing.T) {
	_, ts := startServer(t, Config{MaxBatch: 2})
	var pub publicationJSON
	if code := post(t, ts.URL+"/publish", medicalRequest(), &pub); code != http.StatusOK {
		t.Fatalf("publish returned %d", code)
	}

	cases := []struct {
		name       string
		path       string
		body       any
		wantStatus int
		wantCode   ErrorCode
	}{
		{"unknown id", "/query", map[string]any{"id": "nope", "queries": []QueryJSON{{SA: "Flu"}}},
			http.StatusNotFound, CodeNotFound},
		{"empty batch", "/query", map[string]any{"id": pub.ID},
			http.StatusBadRequest, CodeBadRequest},
		{"oversized batch", "/query", map[string]any{"id": pub.ID, "queries": make([]QueryJSON, 3)},
			http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"empty subsets", "/reconstruct", map[string]any{"id": pub.ID},
			http.StatusBadRequest, CodeBadRequest},
		{"insert into sps", "/insert", map[string]any{"id": pub.ID, "records": []map[string]string{{"x": "y"}}},
			http.StatusConflict, CodeNotIncremental},
		{"bad audit trials", "/audit", map[string]any{"id": pub.ID, "trials": -1},
			http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", jsonBody(t, tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var eb ErrorBody
			decodeBody(t, resp, &eb)
			if eb.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", eb.Code, tc.wantCode)
			}
			if eb.Message == "" || eb.Error != eb.Message {
				t.Fatalf("message %q / error %q: legacy mirror broken", eb.Message, eb.Error)
			}
			if tc.wantCode.Retryable() && resp.Header.Get("Retry-After") == "" {
				t.Fatal("retryable code without Retry-After header")
			}
		})
	}
}

// TestMethodNotAllowed covers the ReadBody method gate shared by every POST
// handler.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	var eb ErrorBody
	decodeBody(t, resp, &eb)
	if eb.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q, want %q", eb.Code, CodeMethodNotAllowed)
	}
}

// TestDecodeErrorCode covers the typed decode and its status fallbacks.
func TestDecodeErrorCode(t *testing.T) {
	cases := []struct {
		status int
		body   string
		want   ErrorCode
	}{
		{400, `{"code":"building","message":"x","error":"x"}`, CodeBuilding}, // body wins
		{404, `not json`, CodeNotFound},
		{405, ``, CodeMethodNotAllowed},
		{409, `{}`, CodeBuilding},
		{413, ``, CodeTooLarge},
		{429, ``, CodeOverloaded},
		{503, ``, CodeUnavailable},
		{500, ``, CodeInternal},
		{418, ``, CodeBadRequest},
	}
	for _, tc := range cases {
		if got := DecodeErrorCode(tc.status, []byte(tc.body)); got != tc.want {
			t.Errorf("DecodeErrorCode(%d, %q) = %q, want %q", tc.status, tc.body, got, tc.want)
		}
	}
}

// TestRetryableSplit pins the retryable/permanent partition the fleet router's
// failover policy is built on.
func TestRetryableSplit(t *testing.T) {
	retryable := []ErrorCode{CodeBuilding, CodeRebuilding, CodeDraining, CodeInternal, CodeUnavailable, CodeOverloaded}
	permanent := []ErrorCode{CodeBadRequest, CodeMethodNotAllowed, CodeNotFound, CodeTooLarge,
		CodeBuildFailed, CodeNotIncremental, CodeNoGroups, CodeCapacity, CodeUnsupported}
	for _, c := range retryable {
		if !c.Retryable() {
			t.Errorf("%q should be retryable", c)
		}
	}
	for _, c := range permanent {
		if c.Retryable() {
			t.Errorf("%q should be permanent", c)
		}
	}
}
