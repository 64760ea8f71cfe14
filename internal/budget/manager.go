package budget

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Defaults for the zero Config. DefaultQuota is calibrated against a
// generation-averaging adversary on the reference medical publication
// (internal/experiments/budget.go, EXPERIMENTS.md): stably pinning any
// raw group histogram — reconstruction accuracy beyond what the
// single-generation Bernstein envelope permits — costs at least ~2,400
// charge units even for the smallest group on the attacker's luckiest
// measured seed, and certifying a pin from the envelope itself costs tens
// of thousands. The default tier's 2,000 therefore exhausts first.
// Workloads that legitimately charge more per window (the simulator's
// load generators reach 4,000 units in the adversary scenario) belong in
// the trusted tier, whose DefaultTrustedFactor lifts the quota to 8,000.
const (
	DefaultQuota          = 2000
	DefaultWindow         = time.Hour
	DefaultSlots          = 4
	DefaultTrustedFactor  = 4    // trusted tier = factor × default quota
	DefaultPubFactor      = 50   // publication quota = factor × default quota
	DefaultSoftFraction   = 0.85 // shed reconstruct-class charges past this
	DefaultMaxTracked     = 1 << 16
	DefaultSketchWidth    = 1 << 18
	DefaultSketchDepth    = 4
	DefaultMaxTrackedPubs = 4096
)

// Unlimited is the Remaining value reported when enforcement is disabled.
const Unlimited = math.MaxInt64

// Class labels what kind of work a charge pays for. Reconstruct-class
// charges are shed first as a client approaches its quota: reconstruction
// is the privacy-sensitive operation, so degradation starts there.
type Class int

const (
	ClassQuery Class = iota
	ClassReconstruct
)

// Reason says why a charge was rejected.
type Reason string

const (
	ReasonNone             Reason = ""
	ReasonClientQuota      Reason = "client_quota"
	ReasonPublicationQuota Reason = "publication_quota"
	ReasonDegraded         Reason = "degraded" // reconstruct shed near quota
)

// Config tunes a Manager. The zero value means production defaults;
// explicit negatives disable the corresponding mechanism.
type Config struct {
	// Quota is the per-client charge budget per window for the default
	// tier. 0 means DefaultQuota; negative disables enforcement entirely
	// (the manager still counts, warns, and reports).
	Quota int64
	// TrustedQuota is the budget for trusted-tier clients
	// (0 = DefaultTrustedFactor × Quota).
	TrustedQuota int64
	// Trusted lists client ids in the trusted tier.
	Trusted []string
	// PublicationQuota caps total charges against one publication per
	// window (0 = DefaultPubFactor × Quota; negative disables).
	PublicationQuota int64
	// Window is the sliding decay window (0 = DefaultWindow), divided
	// into Slots slots (0 = DefaultSlots).
	Window time.Duration
	Slots  int
	// SoftFraction of the quota at which reconstruct-class charges are
	// shed (0 = DefaultSoftFraction; negative disables degradation).
	SoftFraction float64
	// MaxTracked bounds exact per-client entries (0 = DefaultMaxTracked).
	MaxTracked int
	// SketchWidth and SketchDepth size the count-min sketches
	// (0 = DefaultSketchWidth / DefaultSketchDepth). Width is rounded up
	// to a power of two.
	SketchWidth, SketchDepth int
	// PromoteAt is the sketch estimate at which a client is promoted to
	// exact tracking (0 = Quota/2).
	PromoteAt int64
	// Clock supplies time for window rotation (nil = time.Now).
	Clock func() time.Time
}

// Result reports the outcome of a charge or precheck.
type Result struct {
	OK     bool
	Reason Reason
	// Total is the client's cumulative lifetime exposure after the
	// charge (unchanged on rejection). WindowUsed is the windowed usage.
	// Both are exact when Exact is true and count-min upper bounds
	// otherwise.
	Total      int64
	WindowUsed int64
	// Remaining is the window budget left after this charge, or
	// Unlimited when enforcement is off.
	Remaining int64
	Quota     int64
	// RetryAfter, set on rejection, is the duration until enough window
	// slots expire for a same-size charge to fit.
	RetryAfter time.Duration
	Exact      bool
}

// Stats is a point-in-time snapshot for /statsz.
type Stats struct {
	Enforced                                 bool
	Quota, TrustedQuota, PublicationQuota    int64
	WindowSeconds                            float64
	Slots, SketchWidth, SketchDepth          int
	SketchEpsilon, SketchDelta               float64
	Tracked, Seeded, TrackedPubs             int
	Occupancy                                float64 // max tracked window usage / its quota
	MaxClientTotal                           int64   // max cumulative among exact-tracked clients
	Charges                                  uint64
	RejectedClientQuota, RejectedPublication uint64
	RejectedDegraded                         uint64
	Promotions, Evictions                    uint64
	TotalCharged                             int64
	MemoryBytes                              int64
}

// entry is one exactly tracked key: per-slot window usage plus the
// lifetime total. seeded entries were promoted out of the sketch, so their
// counts are upper bounds rather than exact.
type entry struct {
	slots  []int64
	epochs []int64
	total  int64
	seeded bool
}

func newEntry(slots int) *entry {
	return &entry{slots: make([]int64, slots), epochs: make([]int64, slots)}
}

func (en *entry) windowUsed(e int64, nslots int64) int64 {
	var sum int64
	for i, ep := range en.epochs {
		if ep > e-nslots && ep <= e {
			sum += en.slots[i]
		}
	}
	return sum
}

func (en *entry) add(e int64, nslots int64, n int64) {
	pos := int(e % nslots)
	if en.epochs[pos] != e {
		en.slots[pos] = 0
		en.epochs[pos] = e
	}
	en.slots[pos] += n
}

// slotAmounts appends window usage ordered oldest first, zero-filled for
// slots with no charges, mirroring winSketch.slotEstimates.
func (en *entry) slotAmounts(e int64, nslots int64, dst []int64) []int64 {
	for age := nslots - 1; age >= 0; age-- {
		ep := e - age
		pos := int(((ep % nslots) + nslots) % nslots)
		if en.epochs[pos] == ep {
			dst = append(dst, en.slots[pos])
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Manager is the exposure budget manager. All methods are safe for
// concurrent use.
type Manager struct {
	quota, trustedQuota, pubQuota int64
	softQuota, softTrusted        int64 // 0 disables degradation
	promoteAt                     int64
	window, slotDur               time.Duration
	nslots                        int
	maxTracked, maxPubs           int
	depth                         int
	width                         uint64
	clock                         func() time.Time

	mu       sync.Mutex
	epoch    int64
	win      *winSketch
	cum      *cumSketch
	exact    map[string]*entry
	pubs     map[string]*entry
	trusted  map[string]bool
	keyBytes int64 // total bytes of exact-map keys, for memory accounting
	pubBytes int64

	charges, rejClient, rejPub, rejSoft uint64
	promotions, evictions               uint64
	totalCharged                        int64
	maxClientTotal                      int64
	seeded                              int
}

// overflowPub aggregates publications beyond the tracked bound into one
// shared conservative bucket.
const overflowPub = "\x00overflow"

// New returns a Manager for the config; see Config for zero-value
// semantics.
func New(cfg Config) *Manager {
	m := &Manager{
		quota:      cfg.Quota,
		window:     cfg.Window,
		nslots:     cfg.Slots,
		maxTracked: cfg.MaxTracked,
		maxPubs:    DefaultMaxTrackedPubs,
		depth:      cfg.SketchDepth,
		clock:      cfg.Clock,
	}
	if m.quota == 0 {
		m.quota = DefaultQuota
	}
	if m.window <= 0 {
		m.window = DefaultWindow
	}
	if m.nslots <= 0 {
		m.nslots = DefaultSlots
	}
	m.slotDur = m.window / time.Duration(m.nslots)
	if m.maxTracked <= 0 {
		m.maxTracked = DefaultMaxTracked
	}
	if m.depth <= 0 {
		m.depth = DefaultSketchDepth
	}
	w := cfg.SketchWidth
	if w <= 0 {
		w = DefaultSketchWidth
	}
	m.width = pow2(w)
	if m.clock == nil {
		m.clock = time.Now
	}
	m.trustedQuota = cfg.TrustedQuota
	if m.trustedQuota == 0 && m.quota > 0 {
		m.trustedQuota = DefaultTrustedFactor * m.quota
	}
	m.pubQuota = cfg.PublicationQuota
	if m.pubQuota == 0 && m.quota > 0 {
		m.pubQuota = DefaultPubFactor * m.quota
	}
	soft := cfg.SoftFraction
	if soft == 0 {
		soft = DefaultSoftFraction
	}
	if soft > 0 && m.quota > 0 {
		m.softQuota = int64(soft * float64(m.quota))
		m.softTrusted = int64(soft * float64(m.trustedQuota))
	}
	m.promoteAt = cfg.PromoteAt
	if m.promoteAt <= 0 {
		q := m.quota
		if q <= 0 {
			q = DefaultQuota
		}
		m.promoteAt = q / 2
	}
	m.win = newWinSketch(m.nslots, m.depth, m.width)
	m.cum = newCumSketch(m.depth, m.width)
	m.exact = make(map[string]*entry)
	m.pubs = make(map[string]*entry)
	m.trusted = make(map[string]bool, len(cfg.Trusted))
	for _, c := range cfg.Trusted {
		m.trusted[c] = true
	}
	return m
}

// Enforced reports whether quotas are active (Config.Quota >= 0).
func (m *Manager) Enforced() bool { return m.quota > 0 }

func (m *Manager) quotaFor(client string) int64 {
	if m.trusted[client] {
		return m.trustedQuota
	}
	return m.quota
}

func (m *Manager) softFor(client string) int64 {
	if m.trusted[client] {
		return m.softTrusted
	}
	return m.softQuota
}

// advance moves the window to the clock's current epoch. Callers hold mu.
func (m *Manager) advance() int64 {
	e := m.clock().UnixNano() / int64(m.slotDur)
	if e != m.epoch {
		m.win.advance(e)
		m.epoch = e
	}
	return e
}

// Charge atomically checks and charges n units for client against pub.
// A rejected charge mutates nothing: a 429 never charges.
func (m *Manager) Charge(client, pub string, n int64, class Class) Result {
	return m.charge(client, pub, n, class, false)
}

// ChargeServed charges unconditionally, even past quota. The fleet router
// uses it at settle time, when the replica's answer has already been
// relayed: the response cannot be unsent, so the charge must land and the
// client's next precheck pays for the overshoot.
func (m *Manager) ChargeServed(client, pub string, n int64, class Class) Result {
	return m.charge(client, pub, n, class, true)
}

// Precheck evaluates whether a charge of unknown size could proceed: it
// rejects only when the window is already at or past the relevant limit.
// Nothing is charged.
func (m *Manager) Precheck(client, pub string, class Class) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.advance()
	used, total, exact := m.usage(client, e)
	quota := m.quotaFor(client)
	res := Result{OK: true, Total: total, WindowUsed: used, Quota: quota, Exact: exact, Remaining: Unlimited}
	if quota <= 0 {
		return res
	}
	res.Remaining = quota - used
	if res.Remaining < 0 {
		res.Remaining = 0
	}
	limit := quota
	reason := ReasonClientQuota
	if soft := m.softFor(client); class == ClassReconstruct && soft > 0 && soft < limit {
		limit, reason = soft, ReasonDegraded
	}
	if used >= limit {
		res.OK = false
		res.Reason = reason
		res.Remaining = 0
		res.RetryAfter = m.retryAfter(client, e, used, 1, limit)
		m.countReject(reason)
		return res
	}
	if m.pubQuota > 0 && pub != "" {
		if pe, ok := m.pubs[m.pubKey(pub)]; ok && pe.windowUsed(e, int64(m.nslots)) >= m.pubQuota {
			res.OK = false
			res.Reason = ReasonPublicationQuota
			res.RetryAfter = m.slotDur - time.Duration(m.clock().UnixNano()-e*int64(m.slotDur))
			m.countReject(ReasonPublicationQuota)
		}
	}
	return res
}

func (m *Manager) charge(client, pub string, n int64, class Class, force bool) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.advance()
	used, total, exact := m.usage(client, e)
	quota := m.quotaFor(client)
	res := Result{OK: true, Total: total, WindowUsed: used, Quota: quota, Exact: exact, Remaining: Unlimited}
	if n <= 0 {
		return res
	}
	if quota > 0 && !force {
		if rej, reason, limit := m.checkClient(client, used, n, class, quota); rej {
			res.OK = false
			res.Reason = reason
			res.Remaining = quota - used
			if res.Remaining < 0 {
				res.Remaining = 0
			}
			res.RetryAfter = m.retryAfter(client, e, used, n, limit)
			m.countReject(reason)
			return res
		}
		if m.pubQuota > 0 && pub != "" {
			pe := m.pubs[m.pubKey(pub)]
			pused := int64(0)
			if pe != nil {
				pused = pe.windowUsed(e, int64(m.nslots))
			}
			if pused+n > m.pubQuota {
				res.OK = false
				res.Reason = ReasonPublicationQuota
				res.Remaining = quota - used
				if res.Remaining < 0 {
					res.Remaining = 0
				}
				res.RetryAfter = m.pubRetryAfter(pe, e, pused, n)
				m.countReject(ReasonPublicationQuota)
				return res
			}
		}
	}
	used, total, exact = m.commit(client, e, n)
	if pub != "" && m.pubQuota > 0 {
		m.chargePub(pub, e, n)
	}
	m.charges++
	m.totalCharged += n
	res.WindowUsed = used
	res.Total = total
	res.Exact = exact
	if quota > 0 {
		res.Remaining = quota - used
		if res.Remaining < 0 {
			res.Remaining = 0
		}
	}
	return res
}

func (m *Manager) checkClient(client string, used, n int64, class Class, quota int64) (bool, Reason, int64) {
	if used+n > quota {
		return true, ReasonClientQuota, quota
	}
	if soft := m.softFor(client); class == ClassReconstruct && soft > 0 && used+n > soft {
		return true, ReasonDegraded, soft
	}
	return false, ReasonNone, 0
}

// usage returns window usage, lifetime total, and exactness for client.
func (m *Manager) usage(client string, e int64) (used, total int64, exactCounts bool) {
	if en, ok := m.exact[client]; ok {
		return en.windowUsed(e, int64(m.nslots)), en.total, !en.seeded
	}
	base := hashKey(client)
	return m.win.estimate(base), m.cum.estimate(base), false
}

// commit lands an accepted charge and handles tracking transitions.
func (m *Manager) commit(client string, e, n int64) (used, total int64, exactCounts bool) {
	nslots := int64(m.nslots)
	if en, ok := m.exact[client]; ok {
		en.add(e, nslots, n)
		en.total += n
		if en.total > m.maxClientTotal {
			m.maxClientTotal = en.total
		}
		return en.windowUsed(e, nslots), en.total, !en.seeded
	}
	if len(m.exact) < m.maxTracked {
		// Free exact slot: track from the first charge, bypassing the
		// sketch entirely so the counts are exact for good.
		en := newEntry(m.nslots)
		en.add(e, nslots, n)
		en.total = n
		m.exact[client] = en
		m.keyBytes += int64(len(client))
		if en.total > m.maxClientTotal {
			m.maxClientTotal = en.total
		}
		return n, n, true
	}
	base := hashKey(client)
	m.win.add(base, e, n)
	m.cum.add(base, n)
	w := m.win.estimate(base)
	if w >= m.promoteAt && w-n < m.promoteAt {
		// The estimate crossed the promotion threshold on this charge:
		// this client is now a heavy hitter worth exact tracking.
		m.promote(client, base, e, w)
	}
	if en, ok := m.exact[client]; ok {
		return en.windowUsed(e, nslots), en.total, false
	}
	return w, m.cum.estimate(base), false
}

// promote moves a sketch-resident client into the exact map, evicting the
// tracked entry with the smallest window usage if the map is full. The
// victim is the minimum (usage, client) pair — a deterministic function of
// the charge sequence, never of map iteration order. The promoted entry is
// seeded from its sketch estimates, which only overestimate, so promotion
// preserves the never-undercount invariant; its counts stay flagged as
// estimates.
func (m *Manager) promote(client string, base uint64, e int64, w int64) {
	nslots := int64(m.nslots)
	if len(m.exact) >= m.maxTracked {
		victim := ""
		victimUsed := int64(math.MaxInt64)
		for c, en := range m.exact {
			u := en.windowUsed(e, nslots)
			if u < victimUsed || (u == victimUsed && (victim == "" || c < victim)) {
				victim, victimUsed = c, u
			}
		}
		if victimUsed >= w {
			return // everyone tracked is at least as heavy
		}
		m.evict(victim, e)
	}
	en := newEntry(m.nslots)
	for i, est := range m.win.slotEstimates(base, e, nil) {
		ep := e - (nslots - 1) + int64(i)
		if est > 0 {
			en.epochs[int(((ep%nslots)+nslots)%nslots)] = ep
			en.slots[int(((ep%nslots)+nslots)%nslots)] = est
		}
	}
	en.total = m.cum.estimate(base)
	en.seeded = true
	m.exact[client] = en
	m.keyBytes += int64(len(client))
	m.seeded++
	m.promotions++
	if en.total > m.maxClientTotal {
		m.maxClientTotal = en.total
	}
}

// evict folds an exact entry back into the sketches so estimates for the
// evicted client remain upper bounds.
func (m *Manager) evict(client string, e int64) {
	en := m.exact[client]
	base := hashKey(client)
	nslots := int64(m.nslots)
	for i, ep := range en.epochs {
		if ep > e-nslots && ep <= e && en.slots[i] > 0 {
			m.win.add(base, ep, en.slots[i])
		}
	}
	if en.total > 0 {
		m.cum.add(base, en.total)
	}
	if en.seeded {
		m.seeded--
	}
	delete(m.exact, client)
	m.keyBytes -= int64(len(client))
	m.evictions++
}

func (m *Manager) pubKey(pub string) string {
	if _, ok := m.pubs[pub]; ok {
		return pub
	}
	if len(m.pubs) >= m.maxPubs {
		return overflowPub
	}
	return pub
}

func (m *Manager) chargePub(pub string, e, n int64) {
	key := m.pubKey(pub)
	pe, ok := m.pubs[key]
	if !ok {
		pe = newEntry(m.nslots)
		m.pubs[key] = pe
		m.pubBytes += int64(len(key))
	}
	pe.add(e, int64(m.nslots), n)
	pe.total += n
}

// retryAfter computes how long until enough of the client's window expires
// for a charge of n to fit under limit. Slots expire oldest first; the
// answer is the duration to the k-th rotation where the freed usage
// suffices, capped at a full window when n alone exceeds the limit.
func (m *Manager) retryAfter(client string, e int64, used, n, limit int64) time.Duration {
	var amounts []int64
	if en, ok := m.exact[client]; ok {
		amounts = en.slotAmounts(e, int64(m.nslots), nil)
	} else {
		amounts = m.win.slotEstimates(hashKey(client), e, nil)
	}
	return m.retryFromSlots(amounts, e, used, n, limit)
}

func (m *Manager) pubRetryAfter(pe *entry, e int64, used, n int64) time.Duration {
	if pe == nil {
		return m.window
	}
	return m.retryFromSlots(pe.slotAmounts(e, int64(m.nslots), nil), e, used, n, m.pubQuota)
}

func (m *Manager) retryFromSlots(amounts []int64, e int64, used, n, limit int64) time.Duration {
	intoSlot := time.Duration(m.clock().UnixNano() - e*int64(m.slotDur))
	freed := int64(0)
	for k, a := range amounts {
		freed += a
		if used-freed+n <= limit {
			return time.Duration(k+1)*m.slotDur - intoSlot
		}
	}
	return m.window
}

func (m *Manager) countReject(r Reason) {
	switch r {
	case ReasonClientQuota:
		m.rejClient++
	case ReasonPublicationQuota:
		m.rejPub++
	case ReasonDegraded:
		m.rejSoft++
	}
}

// Estimate returns the client's cumulative lifetime exposure and whether
// it is exact (true only for clients tracked since their first charge).
func (m *Manager) Estimate(client string) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if en, ok := m.exact[client]; ok {
		return en.total, !en.seeded
	}
	return m.cum.estimate(hashKey(client)), false
}

// WindowUsed returns the client's usage within the current window and
// whether it is exact.
func (m *Manager) WindowUsed(client string) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.advance()
	used, _, exact := m.usage(client, e)
	return used, exact
}

// QuotaFor returns the window quota that applies to client (0 when
// enforcement is disabled).
func (m *Manager) QuotaFor(client string) int64 {
	if m.quota <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quotaFor(client)
}

// TotalCharged returns the lifetime sum of accepted charges.
func (m *Manager) TotalCharged() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalCharged
}

// Tracked returns the number of exactly tracked clients.
func (m *Manager) Tracked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.exact)
}

// TrackedClients returns the exactly tracked client ids, sorted. The
// sketch-resident tail is not enumerable.
func (m *Manager) TrackedClients() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.exact))
	for c := range m.exact {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// MemoryBytes returns the manager's working-set size, computed from
// structure sizes rather than sampled from the runtime: sketch slabs plus
// exact-map entries (key bytes, slot arrays, map overhead).
func (m *Manager) MemoryBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.memoryBytesLocked()
}

func (m *Manager) memoryBytesLocked() int64 {
	const entryOverhead = 48 + 16 + 48 // struct + string header + map bucket share
	perEntry := int64(m.nslots)*16 + entryOverhead
	b := int64(len(m.win.counts))*4 + int64(len(m.cum.counts))*8
	b += int64(len(m.exact))*perEntry + m.keyBytes
	b += int64(len(m.pubs))*perEntry + m.pubBytes
	return b
}

// Snapshot returns current Stats.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.epoch
	st := Stats{
		Enforced:            m.quota > 0,
		Quota:               m.quota,
		TrustedQuota:        m.trustedQuota,
		PublicationQuota:    m.pubQuota,
		WindowSeconds:       m.window.Seconds(),
		Slots:               m.nslots,
		SketchWidth:         int(m.width),
		SketchDepth:         m.depth,
		SketchEpsilon:       math.E / float64(m.width),
		SketchDelta:         math.Exp(-float64(m.depth)),
		Tracked:             len(m.exact),
		Seeded:              m.seeded,
		TrackedPubs:         len(m.pubs),
		MaxClientTotal:      m.maxClientTotal,
		Charges:             m.charges,
		RejectedClientQuota: m.rejClient,
		RejectedPublication: m.rejPub,
		RejectedDegraded:    m.rejSoft,
		Promotions:          m.promotions,
		Evictions:           m.evictions,
		TotalCharged:        m.totalCharged,
		MemoryBytes:         m.memoryBytesLocked(),
	}
	if m.quota > 0 {
		maxUsed := int64(0)
		var maxQuota int64 = 1
		for c, en := range m.exact {
			u := en.windowUsed(e, int64(m.nslots))
			q := m.quotaFor(c)
			if q > 0 && u*maxQuota > maxUsed*q { // compare u/q fractions
				maxUsed, maxQuota = u, q
			}
		}
		st.Occupancy = float64(maxUsed) / float64(maxQuota)
	}
	return st
}
