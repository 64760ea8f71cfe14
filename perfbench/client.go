package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/reconpriv/reconpriv/internal/wire"
)

// Operation types, as the report names them.
const (
	opQuery       = "query"
	opReconstruct = "reconstruct"
	opInsert      = "insert"
)

// Phases of a run. Set-up is each server launch's first checked answer;
// warm-up lets the connection, caches and lazy set-up settle; only the
// timed phase feeds the end-to-end metrics.
const (
	phaseSetup = iota
	phaseWarmup
	phaseTimed
	numPhases
)

var phaseNames = [numPhases]string{"setup", "warmup", "timed"}

// conn is the closed loop's connection: its own transport, so each request
// of the loop reuses the same keep-alive TCP connection, and a reusable
// response buffer.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

// post sends one request and reads the whole response into c.buf. The
// returned latency runs from before the request is written until the last
// response byte is read.
func (c *conn) post(path string, binary bool, body []byte) (status int, latency time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// getJSON decodes a GET response body into v.
func (c *conn) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// opCounts is the outcome tally of one operation type in one phase. A
// refusal is a typed 429 or 503; any other error status or transport
// failure is a failure.
type opCounts struct {
	Attempted, Succeeded, Failed, Refused int64
}

// tally is a load's record: outcome counts per phase and operation, and the
// timed phase's latencies and serve_us readings.
type tally struct {
	counts            [numPhases]map[string]*opCounts
	latMS             map[string][]float64 // timed, successful operations
	serveUS           map[string][]int64   // aligned with latMS where the response has serve_us
	units             map[string]int64     // timed answered units: queries, subsets, records
	done              []doneOp             // timed, successful operations in completion order
	bytesIn, bytesOut int64                // timed /query request and response bytes
	nBytes            int64                // timed /query requests measured
	start, lastEnd    time.Time            // start of the timed phase, end of its last operation
}

func newTally() *tally {
	t := &tally{latMS: map[string][]float64{}, serveUS: map[string][]int64{}, units: map[string]int64{}}
	for p := range t.counts {
		t.counts[p] = map[string]*opCounts{}
	}
	return t
}

// outcome classifies an HTTP result and counts it; it reports whether the
// operation succeeded.
func (t *tally) outcome(phase int, op string, status int, err error) bool {
	c := t.counts[phase][op]
	if c == nil {
		c = &opCounts{}
		t.counts[phase][op] = c
	}
	c.Attempted++
	switch {
	case err == nil && status == http.StatusOK:
		c.Succeeded++
		return true
	case err == nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable):
		c.Refused++
	default:
		c.Failed++
	}
	return false
}

// doneOp is a successful timed operation: when it ended, its type and its
// answered units.
type doneOp struct {
	end   time.Time
	op    string
	units int64
}

// record notes a successful timed operation.
func (t *tally) record(op string, latency time.Duration, serveUS int64, units int64, end time.Time) {
	t.latMS[op] = append(t.latMS[op], float64(latency.Nanoseconds())/1e6)
	t.serveUS[op] = append(t.serveUS[op], serveUS)
	t.units[op] += units
	t.done = append(t.done, doneOp{end, op, units})
	if end.After(t.lastEnd) {
		t.lastEnd = end
	}
}

// rates cuts the timed phase, from its start to the end of its last
// operation, into n equal windows and returns for each window the answered
// requests (/query and /reconstruct), queries and inserted records per
// second.
func (t *tally) rates(n int) (reqs, queries, records []float64) {
	ends := make([]time.Time, len(t.done))
	rw := make([]float64, len(t.done))
	qw := make([]float64, len(t.done))
	iw := make([]float64, len(t.done))
	for i, d := range t.done {
		ends[i] = d.end
		switch d.op {
		case opQuery:
			rw[i], qw[i] = 1, float64(d.units)
		case opReconstruct:
			rw[i] = 1
		case opInsert:
			iw[i] = float64(d.units)
		}
	}
	return windowRates(t.start, t.lastEnd, n, ends, rw), windowRates(t.start, t.lastEnd, n, ends, qw), windowRates(t.start, t.lastEnd, n, ends, iw)
}

// clean reports whether the phase has operations and every one of them
// succeeded.
func (t *tally) clean(phase int) bool {
	for _, c := range t.counts[phase] {
		if c.Succeeded != c.Attempted {
			return false
		}
	}
	return len(t.counts[phase]) > 0
}

// timedTotals sums the timed phase over operation types.
func (t *tally) timedTotals() (attempted, failed int64) {
	for _, c := range t.counts[phaseTimed] {
		attempted += c.Attempted
		failed += c.Failed + c.Refused
	}
	return attempted, failed
}

// report renders the per-phase, per-operation outcome counts.
func (t *tally) report() string {
	var b strings.Builder
	for p, m := range t.counts {
		ops := make([]string, 0, len(m))
		for op := range m {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			c := m[op]
			fmt.Fprintf(&b, "  %-7s %-12s attempted %7d  succeeded %7d  failed %d  refused %d\n",
				phaseNames[p], op, c.Attempted, c.Succeeded, c.Failed, c.Refused)
		}
	}
	return b.String()
}
