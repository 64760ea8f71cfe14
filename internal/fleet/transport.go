package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"github.com/reconpriv/reconpriv/internal/serve"
)

// transport is how the router exchanges one HTTP request with one replica
// server, wherever that server runs. The in-process implementation serves
// straight into memory; the HTTP implementation crosses real sockets to a
// child process or an attached peer. Both present identical semantics —
// transport-level failures (down, refused, timed out) come back as errors,
// HTTP-level failures come back as responses — so the router's failover,
// health, and replay machinery is provably transport-agnostic: the same
// test table runs against both.
type transport interface {
	// do executes one request. The context deadline bounds the exchange;
	// on expiry the attempt is abandoned and an error returned.
	do(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error)
	// close releases transport resources (idle connections; a no-op for
	// the in-process transport).
	close()
}

// response is one HTTP exchange's result, as the router stores, patches,
// replays, and re-emits it.
type response struct {
	status int
	header http.Header
	body   []byte
}

// memWriter is the in-process http.ResponseWriter replicas serve into: no
// sockets, just bytes. It is written by exactly one handler goroutine and
// read only after that goroutine signals completion. Its commit semantics
// mirror net/http exactly — an implicit 200 when the handler returns
// without writing, and a header snapshot taken when the status is
// committed, so header mutations after WriteHeader are not observed —
// because the HTTP transport inherits those semantics from a real server
// and the two transports must be indistinguishable to the router.
type memWriter struct {
	hdr       http.Header
	status    int
	committed http.Header
	buf       bytes.Buffer
}

func (m *memWriter) Header() http.Header {
	if m.hdr == nil {
		m.hdr = make(http.Header)
	}
	return m.hdr
}

func (m *memWriter) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.WriteHeader(http.StatusOK)
	}
	return m.buf.Write(p)
}

func (m *memWriter) WriteHeader(code int) {
	if m.status != 0 {
		return
	}
	m.status = code
	m.committed = m.hdr.Clone()
}

// response finalizes the exchange the way a real server would: a handler
// that returned without writing anything gets an implicit 200 OK.
func (m *memWriter) response() *response {
	if m.status == 0 {
		m.WriteHeader(http.StatusOK)
	}
	return &response{status: m.status, header: m.committed, body: m.buf.Bytes()}
}

// memTransport serves requests into an in-process serve.Server's handler —
// the simulation-scale replica. Like the HTTP transport it offers nothing
// but that handler, so every router code path speaks HTTP through the
// transport.
type memTransport struct {
	h http.Handler
}

func newMemTransport(cfg serve.Config) *memTransport {
	return &memTransport{h: serve.New(cfg).Handler()}
}

// do runs the handler in a goroutine so the context deadline is honored
// even mid-handler. On deadline the goroutine is abandoned — it keeps
// running against the replica (charging its local ledger, exactly the
// hazard the router's authoritative ledger exists for) but its response is
// discarded, just as a real server keeps serving a request whose client
// hung up.
func (t *memTransport) do(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://replica"+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	req.RemoteAddr = "fleet:0"

	w := &memWriter{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.h.ServeHTTP(w, req)
	}()
	select {
	case <-done:
		return w.response(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (t *memTransport) close() {}

// httpTransport reaches one replica over real sockets: a spawned child
// process or an attached peer. The pooled client is shared across the
// fleet's replicas and carries no client-level timeout — every exchange is
// bounded by its context, so the router's per-attempt deadline is the only
// clock, same as in-process.
type httpTransport struct {
	base string // "http://127.0.0.1:port"
	hc   *http.Client
}

func newHTTPTransport(base string, hc *http.Client) *httpTransport {
	return &httpTransport{base: base, hc: hc}
}

func (t *httpTransport) do(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	hdr := resp.Header.Clone()
	// Strip wire- and server-owned headers so both transports hand the
	// router the same view: the router re-frames the body it emits (which
	// may be ledger-patched to a different length), and the in-process
	// transport never sees these.
	for _, k := range []string{"Content-Length", "Transfer-Encoding", "Connection", "Keep-Alive", "Date"} {
		hdr.Del(k)
	}
	return &response{status: resp.StatusCode, header: hdr, body: b}, nil
}

func (t *httpTransport) close() { t.hc.CloseIdleConnections() }

// newFleetClient builds the fleet's shared connection-pooled HTTP client.
// No Timeout is set deliberately: per-attempt contexts supply every
// deadline, and a client-level timeout would double-bound long control
// operations (publish, restore) that run under the build deadline.
func newFleetClient(replicas int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		MaxIdleConns:        16 * max(replicas, 1),
	}}
}
