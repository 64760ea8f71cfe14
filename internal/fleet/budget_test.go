package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/serve"
)

// fakeClock is a mutex-guarded test clock shared by the router's budget
// manager and every replica.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	// An epoch aligned to every slot width used below, so window positions
	// are deterministic.
	return &fakeClock{now: time.Unix(1_000_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestFleetBudgetRejection pins the router-authoritative budget: the
// precheck 429 is typed, never charges, and never reaches a replica, while
// replicas themselves run with enforcement disabled so the router's
// admission decision is the only one.
func TestFleetBudgetRejection(t *testing.T) {
	f := New(Config{Replicas: 2, ReplicationFactor: 2,
		Serve: serve.Config{BudgetQuota: 10}})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	var first serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 10), &first); code != http.StatusOK {
		t.Fatalf("fill batch returned %d", code)
	}
	if first.ClientQueries != 10 || first.BudgetRemaining != 0 || !first.BudgetExact {
		t.Fatalf("fill ledger: %+v", first)
	}

	var eb serve.ErrorBody
	code, hdr := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 1), &eb)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota query returned %d", code)
	}
	if eb.Code != serve.CodeBudgetExhausted {
		t.Fatalf("code = %q, want %q", eb.Code, serve.CodeBudgetExhausted)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if got := f.ClientExposure("c1"); got != 10 {
		t.Fatalf("rejected request charged the ledger: %d, want 10", got)
	}
	if f.Stats().BudgetRejected != 1 {
		t.Fatalf("budget_rejected = %d, want 1", f.Stats().BudgetRejected)
	}

	// Replicas must not enforce on their own: each holder saw at most the
	// fill batch, far under the fleet quota, and their managers are off.
	for _, hi := range f.Holders(id) {
		resp, err := f.control(f.replicas[hi], http.MethodGet, "/statsz", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Budget serve.BudgetStatsz `json:"budget"`
		}
		if err := json.Unmarshal(resp.body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Budget.Enforced {
			t.Fatalf("replica %d enforces its own budget", hi)
		}
	}

	// Fleet /statsz mirrors the single-server budget block.
	st := f.Stats()
	if st.TotalCharged != 10 || !st.Budget.Enforced || st.Budget.RejectedClientQuota != 1 {
		t.Fatalf("fleet statsz budget block: total %d %+v", st.TotalCharged, st.Budget)
	}
}

// TestFleetRetryAfterHeaders is the rejection-header table: both 429 flavors
// (budget precheck, overload shed) and the 503 carry Retry-After, with the
// computed values where the configuration makes them deterministic.
func TestFleetRetryAfterHeaders(t *testing.T) {
	t.Run("budget 429 derives from the window", func(t *testing.T) {
		clock := newFakeClock()
		f := New(Config{Replicas: 1, ReplicationFactor: 1,
			Serve: serve.Config{BudgetQuota: 5, BudgetWindow: 400 * time.Second, Clock: clock.Now}})
		id, err := f.Publish(testPublish(1))
		if err != nil {
			t.Fatal(err)
		}
		h := f.Handler()
		if code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 5), nil); code != http.StatusOK {
			t.Fatal("fill failed")
		}
		var eb serve.ErrorBody
		code, hdr := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "c1", 1), &eb)
		if code != http.StatusTooManyRequests || eb.Code != serve.CodeBudgetExhausted {
			t.Fatalf("got %d %q", code, eb.Code)
		}
		// The whole quota sits in the current (newest) slot of a 4-slot,
		// 400s window that the fixed clock entered exactly at a slot edge:
		// the charge decays out only when the full window passes.
		if got := hdr.Get("Retry-After"); got != "400" {
			t.Fatalf("Retry-After = %q, want 400 (full window)", got)
		}
	})

	t.Run("overload 429 derives from the backoff schedule", func(t *testing.T) {
		f := New(Config{Replicas: 2, ReplicationFactor: 2, MaxInFlight: 1,
			MaxAttempts: 5, BackoffMax: 2 * time.Second, Timeout: 10 * time.Second})
		id, err := f.Publish(testPublish(1))
		if err != nil {
			t.Fatal(err)
		}
		h := f.Handler()
		for _, hi := range f.Holders(id) {
			f.InjectLatency(hi, 2*time.Second, 1)
		}
		done := make(chan int, 2)
		for i := 0; i < 2; i++ {
			go func(i int) {
				code, _ := doJSON(t, h, http.MethodPost, "/query", nil,
					queryBody(id, fmt.Sprintf("slow%d", i), 1), nil)
				done <- code
			}(i)
		}
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
		if code != http.StatusTooManyRequests || eb.Code != serve.CodeOverloaded {
			t.Fatalf("got %d %q", code, eb.Code)
		}
		// MaxAttempts × BackoffMax = 10s: the backoff budget a queued retry
		// would have burned.
		if got := hdr.Get("Retry-After"); got != "10" {
			t.Fatalf("Retry-After = %q, want 10", got)
		}
		for i := 0; i < 2; i++ {
			if code := <-done; code != http.StatusOK {
				t.Fatalf("parked request returned %d", code)
			}
		}
	})

	t.Run("503 unavailable keeps the generic hint", func(t *testing.T) {
		f := New(Config{Replicas: 2, ReplicationFactor: 2,
			MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
			Timeout: 100 * time.Millisecond})
		id, err := f.Publish(testPublish(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, hi := range f.Holders(id) {
			f.KillReplica(hi)
		}
		var eb serve.ErrorBody
		code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/query", nil, queryBody(id, "c1", 1), &eb)
		if code != http.StatusServiceUnavailable || eb.Code != serve.CodeUnavailable {
			t.Fatalf("got %d %q", code, eb.Code)
		}
		if got := hdr.Get("Retry-After"); got != "1" {
			t.Fatalf("Retry-After = %q, want 1", got)
		}
	})
}

// TestIdempotentReplayAfterBudget429 pins the interaction of the replay
// cache with budget rejections: a 429 is never cached, so the same
// idempotency key succeeds once the window turns — and the earlier cached
// success still replays without recharging.
func TestIdempotentReplayAfterBudget429(t *testing.T) {
	clock := newFakeClock()
	f := New(Config{Replicas: 2, ReplicationFactor: 2,
		Serve: serve.Config{BudgetQuota: 10, BudgetWindow: 400 * time.Second, Clock: clock.Now}})
	id, err := f.Publish(testPublish(1))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()

	keyA := map[string]string{"X-Idempotency-Key": "fill"}
	keyB := map[string]string{"X-Idempotency-Key": "blocked"}
	var fill serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", keyA, queryBody(id, "c1", 10), &fill); code != http.StatusOK {
		t.Fatalf("fill returned %d", code)
	}

	// keyB hits the quota: 429, uncached, uncharged.
	if code, _ := doJSON(t, h, http.MethodPost, "/query", keyB, queryBody(id, "c1", 2), nil); code != http.StatusTooManyRequests {
		t.Fatalf("blocked request returned %d", code)
	}
	if got := f.ClientExposure("c1"); got != 10 {
		t.Fatalf("429 charged the ledger: %d", got)
	}
	// A resend of keyB is re-evaluated, not replayed from the cache: the
	// precheck counter moves again.
	if code, _ := doJSON(t, h, http.MethodPost, "/query", keyB, queryBody(id, "c1", 2), nil); code != http.StatusTooManyRequests {
		t.Fatalf("blocked resend returned %d", code)
	}
	if got := f.Stats().BudgetRejected; got != 2 {
		t.Fatalf("budget_rejected = %d, want 2 (429s must not be idempotency-cached)", got)
	}

	// The cached success still replays verbatim and does not recharge.
	var replay serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", keyA, queryBody(id, "c1", 10), &replay); code != http.StatusOK {
		t.Fatalf("replay returned %d", code)
	}
	if replay.ClientQueries != fill.ClientQueries || f.ClientExposure("c1") != 10 {
		t.Fatalf("replay recharged: %d vs %d, ledger %d", replay.ClientQueries, fill.ClientQueries, f.ClientExposure("c1"))
	}

	// Once the window turns, the same logical request is admitted.
	clock.Advance(401 * time.Second)
	var retried serve.QueryResponse
	if code, _ := doJSON(t, h, http.MethodPost, "/query", keyB, queryBody(id, "c1", 2), &retried); code != http.StatusOK {
		t.Fatalf("post-window retry returned %d", code)
	}
	if retried.ClientQueries != 12 {
		t.Fatalf("cumulative after retry = %d, want 12 (totals never decay)", retried.ClientQueries)
	}
}
