package main

import (
	"errors"
	"net/http"
	"testing"
)

// TestCleanNeedsEverySetUpRequestAnswered pins the set-up rule: a launch
// counts only when its phase has requests and every one succeeded, so a
// failed or refused first answer cannot pass as a checked one.
func TestCleanNeedsEverySetUpRequestAnswered(t *testing.T) {
	tl := newTally()
	if tl.clean(phaseSetup) {
		t.Error("a phase without requests is clean")
	}
	tl.outcome(phaseSetup, opQuery, http.StatusOK, nil)
	if !tl.clean(phaseSetup) {
		t.Error("a phase whose every request succeeded is not clean")
	}
	for _, c := range []struct {
		status int
		err    error
	}{
		{http.StatusTooManyRequests, nil},
		{http.StatusInternalServerError, nil},
		{0, errors.New("connection refused")},
	} {
		tl := newTally()
		tl.outcome(phaseSetup, opQuery, http.StatusOK, nil)
		tl.outcome(phaseSetup, opReconstruct, c.status, c.err)
		if tl.clean(phaseSetup) {
			t.Errorf("status %d, error %v: phase still clean", c.status, c.err)
		}
	}
}
