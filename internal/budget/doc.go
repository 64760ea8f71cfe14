// Package budget enforces per-client and per-publication exposure budgets
// with bounded memory.
//
// The serving layer charges every answered query and reconstruction against
// the requesting client (see internal/serve); this package turns that
// ledger from an unbounded exact map into a quota-enforcing manager that
// stays small at production client counts. Counting is sketch-backed: a
// count-min sketch absorbs the long tail of clients, while heavy hitters
// are promoted to exact tracking with a deterministic smallest-usage
// eviction, so the clients that matter for enforcement are counted exactly
// and everyone else is overestimated, never under. Usage decays through a
// sliding window of fixed slots, quotas come in configurable tiers
// (default and trusted), and rejections are typed: callers translate a
// failed Result into a budget_exhausted response with a Retry-After
// computed from when enough window slots expire.
//
// Two invariants shape the design. Estimates never undercount — the sketch
// only overestimates, evicted exact entries are folded back into it, and
// nothing is ever subtracted: an accepted charge stands — so a quota can
// bound a reconstruction adversary even for untracked clients. And every
// decision is deterministic in the charge sequence: promotion happens
// exactly when an estimate crosses the threshold, eviction picks the
// minimum (usage, client) pair, and no code path consults map iteration
// order, which keeps the simulator's byte-identical-summary property
// intact.
package budget
