package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// setUp launches a server setups times from scratch, timing each launch up
// to its first checked answer (first, given the set-up's index), and keeps
// the last one running. The earlier ones are stopped as soon as they are
// timed. first sends its requests in the set-up phase of o.tally; a launch
// whose first request failed or was refused ends the run.
func setUp(e *env, o *outcome, bin, name string, args []string, first func(s *server, k int) error) (*server, error) {
	for k := 0; ; k++ {
		start := time.Now()
		s, err := launch(bin, filepath.Join(e.out, fmt.Sprintf("%s-%d.log", name, k)), args...)
		if err != nil {
			return nil, err
		}
		if err := s.waitHealthy(2 * time.Minute); err != nil {
			s.stop()
			return nil, err
		}
		if err := first(s, k); err != nil {
			s.stop()
			return nil, fmt.Errorf("first answer: %w", err)
		}
		if !o.tally.clean(phaseSetup) {
			s.stop()
			return nil, fmt.Errorf("first answer: a set-up request failed or was refused:\n%s%s", o.tally.report(), s.logTail())
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		if k == setups-1 {
			return s, nil
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
}

// drive runs the closed loop through a warm-up and a timed phase of the
// given length and returns when the timed phase began. step sends one
// request in the given phase and checks its answer; an error stops the
// loop.
func drive(timed time.Duration, step func(phase int) error) (time.Time, error) {
	timedStart := time.Now().Add(warmup)
	timedEnd := timedStart.Add(timed)
	for {
		now := time.Now()
		ph := phaseTimed
		switch {
		case now.Before(timedStart):
			ph = phaseWarmup
		case !now.Before(timedEnd):
			return timedStart, nil
		}
		if err := step(ph); err != nil {
			return timedStart, err
		}
	}
}

// load drives the server at base over one connection: the untraced phase
// into o.tally and, in a traced run, the traced phase after it, which also
// yields the per-layer values. led is the server's ledger as the set-up
// left it. beforeTraced, when set, runs between the phases. outside names
// the per-layer metric that takes the time outside the handler.
func load(e *env, o *outcome, base string, led ledger, step func(lc *loadConn, phase int) error, beforeTraced func() error, outside string) error {
	lc := newLoadConn(base, e.seed, 0, o.tally, false, led)
	var err error
	o.tally.start, err = drive(e.seconds, func(ph int) error { return step(lc, ph) })
	lc.close()
	if err != nil || !e.trace {
		return err
	}
	if beforeTraced != nil {
		if err := beforeTraced(); err != nil {
			return err
		}
	}
	o.traced = newTally()
	lc = newLoadConn(base, e.seed, 1, o.traced, true, led)
	o.traced.start, err = drive(e.seconds, func(ph int) error { return step(lc, ph) })
	lc.close()
	if err != nil {
		return err
	}
	o.spans = lc.tracer.spans
	spanLayerValues(o, lc.samples)
	responseLayerValues(o, outside)
	return nil
}

// ledger is the load's count of the exposure charged to each of its
// clients on one server. The load waits for each reply and is the server's
// only client, so every response's client_queries must equal this count
// exactly: the exactly-once charging check.
type ledger map[string]int64

// unknown marks a client whose last request failed: the server may or may
// not have charged it, so its next response resynchronizes the count.
const unknown = -1

// settle adds a response's charge and checks its cumulative total.
func (l ledger) settle(client string, charged, wantCharged, clientQueries int64) error {
	if charged != wantCharged {
		return fmt.Errorf("client %s charged %d, want %d", client, charged, wantCharged)
	}
	if l[client] == unknown {
		l[client] = clientQueries
		return nil
	}
	l[client] += charged
	if clientQueries != l[client] {
		return fmt.Errorf("client %s: client_queries %d, want %d (charging is not exactly once)", client, clientQueries, l[client])
	}
	return nil
}
