package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// This file is the server's error taxonomy: every handler failure maps to a
// stable typed code carried in the JSON body, so clients — above all the
// internal/fleet router — can distinguish retryable conditions (a build
// still in flight, a draining process) from permanent ones (validation, a
// deterministic build failure) without parsing prose. The wire contract is
// ErrorBody; the code set below is append-only.

// ErrorCode classifies one request failure.
type ErrorCode string

// The stable code set. Codes through CodeInternal are emitted by
// serve.Server itself; the trailing three are reserved for routing layers
// (internal/fleet) that speak the same envelope.
const (
	CodeBadRequest       ErrorCode = "bad_request"        // malformed body or invalid parameters
	CodeMethodNotAllowed ErrorCode = "method_not_allowed" // wrong HTTP verb
	CodeNotFound         ErrorCode = "not_found"          // unknown publication id
	CodeTooLarge         ErrorCode = "too_large"          // batch beyond MaxBatch / MaxInsert
	CodeBuilding         ErrorCode = "building"           // publication still building (retry or wait)
	CodeRebuilding       ErrorCode = "rebuilding"         // failed first build being retried
	CodeBuildFailed      ErrorCode = "build_failed"       // the build settled with an error
	CodeNotIncremental   ErrorCode = "not_incremental"    // /insert into a non-incremental publication
	CodeNoGroups         ErrorCode = "no_groups"          // /audit on a publication without a raw snapshot
	CodeCapacity         ErrorCode = "capacity"           // registry publication cap reached
	CodeDraining         ErrorCode = "draining"           // server is shutting down gracefully
	CodeBudgetExhausted  ErrorCode = "budget_exhausted"   // exposure budget quota refused the charge
	CodeInternal         ErrorCode = "internal"           // unexpected server-side failure

	CodeUnavailable ErrorCode = "unavailable" // fleet: no replica of the publication could answer
	CodeOverloaded  ErrorCode = "overloaded"  // fleet: load shed, all replicas at capacity
	CodeUnsupported ErrorCode = "unsupported" // fleet: endpoint not served by this topology
)

// Retryable reports whether a failure with this code is transient: the same
// request may succeed later (or on another replica) without modification.
// Validation failures, unknown ids, oversized batches, and deterministic
// build failures are permanent — retrying them only burns capacity.
func (c ErrorCode) Retryable() bool {
	switch c {
	case CodeBuilding, CodeRebuilding, CodeDraining, CodeBudgetExhausted, CodeInternal,
		CodeUnavailable, CodeOverloaded:
		return true
	}
	return false
}

// ErrorBody is the stable JSON error envelope: {code, message}. Error
// mirrors Message so pre-taxonomy clients that decode {"error": ...} keep
// working.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	Error   string    `json:"error"`
}

// Sentinel errors for conditions programmatic callers (Publish, the fleet
// router) need to distinguish without string matching.
var (
	// ErrCapacity is wrapped by the registry when the distinct-publication
	// cap rejects a new key.
	ErrCapacity = errors.New("publication limit reached")
	// ErrDraining is the drain gate's rejection.
	ErrDraining = errors.New("server is draining")
)

// retryAfterSecs is the Retry-After hint attached to transient rejections
// that have no better estimate of their own.
const retryAfterSecs = "1"

// WriteError renders one typed failure. Transient codes carry a Retry-After
// header so well-behaved clients back off instead of hammering.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, err error) {
	if code.Retryable() {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	msg := err.Error()
	WriteJSON(w, status, ErrorBody{Code: code, Message: msg, Error: msg})
}

// WriteErrorRetryAfter is WriteError with a computed Retry-After instead of
// the generic one-second hint: budget rejections derive it from the sliding
// window, load shedding from the backoff configuration. The header is in
// whole seconds, rounded up, never below one — a sub-second wait still must
// not invite an immediate retry.
func WriteErrorRetryAfter(w http.ResponseWriter, status int, code ErrorCode, err error, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	msg := err.Error()
	WriteJSON(w, status, ErrorBody{Code: code, Message: msg, Error: msg})
}

// DecodeErrorCode extracts the typed code from an error response, falling
// back to a status-derived classification for bodies that predate the
// taxonomy (or are not JSON at all — a proxy's bare 502, say).
func DecodeErrorCode(status int, body []byte) ErrorCode {
	var eb ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Code != "" {
		return eb.Code
	}
	switch {
	case status == http.StatusNotFound:
		return CodeNotFound
	case status == http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case status == http.StatusConflict:
		return CodeBuilding
	case status == http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case status == http.StatusTooManyRequests:
		return CodeOverloaded
	case status == http.StatusServiceUnavailable:
		return CodeUnavailable
	case status >= 500:
		return CodeInternal
	default:
		return CodeBadRequest
	}
}
