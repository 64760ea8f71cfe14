package budget

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/stats"
)

// fakeClock is a manually advanced clock for window tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time       { return f.t }
func (f *fakeClock) step(d time.Duration) { f.t = f.t.Add(d) }

func newTestManager(cfg Config) (*Manager, *fakeClock) {
	fc := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.Clock = fc.now
	return New(cfg), fc
}

// TestQuotaBoundaryExactlyHit pins the boundary semantics: a charge that
// lands exactly on the quota is allowed with zero remaining, and the next
// unit is rejected without being charged.
func TestQuotaBoundaryExactlyHit(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 10})
	if res := m.Charge("c", "p", 4, ClassQuery); !res.OK || res.Remaining != 6 {
		t.Fatalf("first charge: %+v", res)
	}
	res := m.Charge("c", "p", 6, ClassQuery)
	if !res.OK || res.Remaining != 0 || res.WindowUsed != 10 {
		t.Fatalf("boundary charge should succeed with 0 remaining: %+v", res)
	}
	rej := m.Charge("c", "p", 1, ClassQuery)
	if rej.OK || rej.Reason != ReasonClientQuota {
		t.Fatalf("charge past boundary: %+v", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("rejection must carry a positive RetryAfter, got %v", rej.RetryAfter)
	}
	// The rejection must not have charged: totals unchanged.
	if total, exact := m.Estimate("c"); total != 10 || !exact {
		t.Fatalf("after rejection: total=%d exact=%v, want 10 exact", total, exact)
	}
	if st := m.Snapshot(); st.RejectedClientQuota != 1 || st.TotalCharged != 10 {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

// TestWindowRolloverMidBatch drives charges across slot boundaries and
// checks that budget frees exactly as old slots expire, including a
// rejection whose RetryAfter, once waited out, admits the same charge.
func TestWindowRolloverMidBatch(t *testing.T) {
	m, fc := newTestManager(Config{Quota: 100, Window: time.Hour, Slots: 4})
	if res := m.Charge("c", "p", 60, ClassQuery); !res.OK {
		t.Fatalf("first charge: %+v", res)
	}
	fc.step(15 * time.Minute) // one slot
	if res := m.Charge("c", "p", 60, ClassQuery); res.OK {
		t.Fatalf("60+60 in one window must reject: %+v", res)
	}
	if res := m.Charge("c", "p", 40, ClassQuery); !res.OK || res.Remaining != 0 {
		t.Fatalf("charge to exactly the boundary mid-window: %+v", res)
	}
	rej := m.Charge("c", "p", 60, ClassQuery)
	if rej.OK {
		t.Fatalf("over boundary: %+v", rej)
	}
	// Waiting out the advertised RetryAfter must be sufficient.
	fc.step(rej.RetryAfter)
	if res := m.Charge("c", "p", 60, ClassQuery); !res.OK {
		t.Fatalf("charge after RetryAfter %v: %+v", rej.RetryAfter, res)
	}
	// A full window of silence clears everything.
	fc.step(time.Hour)
	if used, _ := m.WindowUsed("c"); used != 0 {
		t.Fatalf("window usage after idle window = %d, want 0", used)
	}
	if total, _ := m.Estimate("c"); total != 160 {
		t.Fatalf("cumulative total must not decay: %d, want 160", total)
	}
}

// TestTrustedTier checks tiered quotas: a trusted client keeps going after
// the default tier is exhausted.
func TestTrustedTier(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 10, TrustedQuota: 40, Trusted: []string{"vip"}})
	if res := m.Charge("plain", "p", 11, ClassQuery); res.OK {
		t.Fatal("default tier must reject 11/10")
	}
	if res := m.Charge("vip", "p", 11, ClassQuery); !res.OK || res.Quota != 40 {
		t.Fatalf("trusted tier: %+v", res)
	}
	if res := m.Charge("vip", "p", 30, ClassQuery); res.OK {
		t.Fatalf("trusted tier past 40: %+v", res)
	}
}

// TestGracefulDegradation checks the shed order: reconstruct-class charges
// are rejected past the soft threshold while query-class charges still
// land, until the hard quota stops everything.
func TestGracefulDegradation(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 100, SoftFraction: 0.8})
	if res := m.Charge("c", "p", 75, ClassQuery); !res.OK {
		t.Fatalf("priming charge: %+v", res)
	}
	rec := m.Charge("c", "p", 10, ClassReconstruct)
	if rec.OK || rec.Reason != ReasonDegraded {
		t.Fatalf("reconstruct past soft threshold: %+v", rec)
	}
	if res := m.Charge("c", "p", 10, ClassQuery); !res.OK {
		t.Fatalf("query at same usage must still pass: %+v", res)
	}
	// 85 used now; 80 is the soft limit, 100 the hard one.
	if res := m.Charge("c", "p", 20, ClassQuery); res.OK || res.Reason != ReasonClientQuota {
		t.Fatalf("hard quota: %+v", res)
	}
	st := m.Snapshot()
	if st.RejectedDegraded != 1 || st.RejectedClientQuota != 1 {
		t.Fatalf("rejection counters: %+v", st)
	}
}

// TestPublicationQuota checks the per-publication cap across clients.
func TestPublicationQuota(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 1000, PublicationQuota: 25})
	for i := 0; i < 5; i++ {
		client := fmt.Sprintf("c%d", i)
		if res := m.Charge(client, "pub", 5, ClassQuery); !res.OK {
			t.Fatalf("client %d: %+v", i, res)
		}
	}
	res := m.Charge("c9", "pub", 5, ClassQuery)
	if res.OK || res.Reason != ReasonPublicationQuota {
		t.Fatalf("publication cap: %+v", res)
	}
	if other := m.Charge("c9", "other", 5, ClassQuery); !other.OK {
		t.Fatalf("other publication unaffected: %+v", other)
	}
}

// TestPromotionDeterministic replays the same charge sequence twice
// through tiny managers and requires identical decisions, tracked sets,
// and stats; it also pins the eviction rule (smallest window usage,
// smallest id on ties).
func TestPromotionDeterministic(t *testing.T) {
	cfg := Config{Quota: -1, MaxTracked: 2, SketchWidth: 64, SketchDepth: 2, PromoteAt: 10}
	run := func() ([]Result, []string, Stats) {
		m, _ := newTestManager(cfg)
		var rs []Result
		// a and b take the exact slots; then heavy charges to c promote
		// it past whichever of a and b is lighter.
		rs = append(rs, m.Charge("a", "", 3, ClassQuery))
		rs = append(rs, m.Charge("b", "", 7, ClassQuery))
		rs = append(rs, m.Charge("c", "", 12, ClassQuery))
		rs = append(rs, m.Charge("d", "", 2, ClassQuery))
		return rs, m.TrackedClients(), m.Snapshot()
	}
	r1, t1, s1 := run()
	r2, t2, s2 := run()
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(t1, t2) || s1 != s2 {
		t.Fatalf("replay diverged:\n%v\n%v\n%v vs %v\n%+v vs %+v", r1, r2, t1, t2, s1, s2)
	}
	// c (12) must have displaced a (3), the lightest tracked entry.
	if !reflect.DeepEqual(t1, []string{"b", "c"}) {
		t.Fatalf("tracked after promotion = %v, want [b c]", t1)
	}
	if s1.Promotions != 1 || s1.Evictions != 1 || s1.Seeded != 1 {
		t.Fatalf("promotion stats: %+v", s1)
	}
}

// TestSketchNeverUndercounts floods a deliberately tiny sketch with a
// zipf-distributed population and checks estimate >= exact for every
// client, tracked or not, including across promotions and evictions.
func TestSketchNeverUndercounts(t *testing.T) {
	m, _ := newTestManager(Config{Quota: -1, MaxTracked: 8, SketchWidth: 64, SketchDepth: 3, PromoteAt: 20})
	rng := stats.NewRand(11)
	z := stats.NewZipf(1.3, 500)
	oracle := map[string]int64{}
	for i := 0; i < 5000; i++ {
		client := fmt.Sprintf("client-%04d", z.Draw(rng))
		n := int64(1 + rng.Intn(3))
		m.Charge(client, "", n, ClassQuery)
		oracle[client] += n
	}
	for client, want := range oracle {
		got, _ := m.Estimate(client)
		if got < want {
			t.Fatalf("estimate for %s = %d undercounts exact %d", client, got, want)
		}
	}
	st := m.Snapshot()
	if st.Tracked > 8 {
		t.Fatalf("tracked %d exceeds MaxTracked 8", st.Tracked)
	}
}

// TestExactTrackingIsExact verifies first-seen tracked clients report
// exact counts regardless of sketch noise from the untracked tail.
func TestExactTrackingIsExact(t *testing.T) {
	m, _ := newTestManager(Config{Quota: -1, MaxTracked: 4, SketchWidth: 16, SketchDepth: 2})
	for i := 0; i < 4; i++ {
		m.Charge(fmt.Sprintf("hh-%d", i), "", int64(100+i), ClassQuery)
	}
	for i := 0; i < 1000; i++ {
		m.Charge(fmt.Sprintf("tail-%d", i), "", 1, ClassQuery)
	}
	for i := 0; i < 4; i++ {
		total, exact := m.Estimate(fmt.Sprintf("hh-%d", i))
		if !exact || total != int64(100+i) {
			t.Fatalf("hh-%d: total=%d exact=%v, want %d exact", i, total, exact, 100+i)
		}
	}
}

// TestChargeServedOvershoots checks the fleet settle path: a served charge
// lands even past quota, and the next precheck pays for it.
func TestChargeServedOvershoots(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 10})
	if res := m.ChargeServed("c", "p", 25, ClassQuery); !res.OK || res.WindowUsed != 25 {
		t.Fatalf("served charge must land: %+v", res)
	}
	pre := m.Precheck("c", "p", ClassQuery)
	if pre.OK || pre.Reason != ReasonClientQuota || pre.RetryAfter <= 0 {
		t.Fatalf("precheck after overshoot: %+v", pre)
	}
}

// TestPrecheckDegradesReconstructFirst mirrors graceful degradation on the
// precheck path used by the fleet router.
func TestPrecheckDegradesReconstructFirst(t *testing.T) {
	m, _ := newTestManager(Config{Quota: 100, SoftFraction: 0.5})
	m.Charge("c", "p", 60, ClassQuery)
	if pre := m.Precheck("c", "p", ClassReconstruct); pre.OK || pre.Reason != ReasonDegraded {
		t.Fatalf("reconstruct precheck past soft: %+v", pre)
	}
	if pre := m.Precheck("c", "p", ClassQuery); !pre.OK {
		t.Fatalf("query precheck below hard quota: %+v", pre)
	}
}

// TestEnforcementDisabled checks Quota < 0: everything is admitted,
// Remaining reports Unlimited, counting still works.
func TestEnforcementDisabled(t *testing.T) {
	m, _ := newTestManager(Config{Quota: -1})
	res := m.Charge("c", "p", 1<<20, ClassQuery)
	if !res.OK || res.Remaining != Unlimited {
		t.Fatalf("disabled enforcement: %+v", res)
	}
	if total, _ := m.Estimate("c"); total != 1<<20 {
		t.Fatalf("total = %d", total)
	}
	if m.Enforced() {
		t.Fatal("Enforced() must be false")
	}
}

// TestMemoryBounded holds a small-config manager under a fixed byte bound
// while the client population grows 100x past MaxTracked.
func TestMemoryBounded(t *testing.T) {
	m, _ := newTestManager(Config{Quota: -1, MaxTracked: 256, SketchWidth: 1 << 10, SketchDepth: 4})
	var after256 int64
	for i := 0; i < 25600; i++ {
		m.Charge(fmt.Sprintf("client-%06d", i), "", 1, ClassQuery)
		if i == 255 {
			after256 = m.MemoryBytes()
		}
	}
	if got := m.MemoryBytes(); got > after256+4096 {
		t.Fatalf("memory grew with client count: %d bytes after 25600 clients vs %d after 256", got, after256)
	}
}

// TestSketchClearsOnlyWrittenSlabs pins the window sketch's expiry: the
// first advance of a fresh sketch (every slot expired, since epochs start
// at 0) leaves never-charged slabs untouched — a sentinel planted behind
// the sketch's back survives — while a charged slab is still zeroed once
// its epoch rolls out of the window.
func TestSketchClearsOnlyWrittenSlabs(t *testing.T) {
	const slots = 4
	w := newWinSketch(slots, 2, 8)
	for pos := 0; pos < slots; pos++ {
		w.slab(pos)[0] = 7
	}
	e := int64(1_000_001)
	w.advance(e)
	for pos := 0; pos < slots; pos++ {
		if got := w.slab(pos)[0]; got != 7 {
			t.Fatalf("first advance cleared never-written slab %d (sentinel %d)", pos, got)
		}
	}

	base := hashKey("client")
	w.add(base, e, 5)
	pos := int(e % slots)
	if got := w.slotEstimate(base, pos); got < 5 {
		t.Fatalf("charged slot estimate %d, want >= 5", got)
	}
	w.advance(e + slots - 1)
	if got := w.slotEstimate(base, pos); got < 5 {
		t.Fatalf("slot cleared while still inside the window (estimate %d)", got)
	}
	w.advance(e + slots)
	for i, c := range w.slab(pos) {
		if c != 0 {
			t.Fatalf("rollover left counter %d = %d in the charged slab", i, c)
		}
	}
	if got := w.slotEstimate(base, pos); got != 0 {
		t.Fatalf("expired slot estimate %d, want 0", got)
	}
}

func BenchmarkBudgetCharge(b *testing.B) {
	m := New(Config{})
	rng := stats.NewRand(1)
	z := stats.NewZipf(1.2, 1_000_000)
	ids := make([]string, 1<<16)
	for i := range ids {
		ids[i] = fmt.Sprintf("client-%07d", z.Draw(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Charge(ids[i&(1<<16-1)], "pub", 1, ClassQuery)
	}
}
