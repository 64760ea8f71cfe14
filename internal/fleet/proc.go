package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"github.com/reconpriv/reconpriv/internal/serve"
)

// childEnv is the environment variable that turns any binary calling
// ChildServeMain into a bare replica server. Its value is the replica's
// serve.Config as JSON (Clock, a function, stays behind: replicas keep
// their own time).
const childEnv = "RP_FLEET_CHILD"

// childReadyPrefix is the stdout line a child prints once it is listening;
// the rest of the line is its address.
const childReadyPrefix = "RP_FLEET_CHILD_READY "

// ChildServeMain is the child-process hook for cross-process fleets: when
// the RP_FLEET_CHILD environment variable is set, the process runs a bare
// replica server on a loopback port, prints the address for the parent, and
// never returns. Binaries that spawn fleets (cmd/rpfleet, cmd/rpsim) and
// test mains call it first thing, so the fleet can re-execute its own
// binary as replica processes without needing a separate server binary on
// disk. When the variable is unset it does nothing.
func ChildServeMain() {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return
	}
	var cfg serve.Config
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "fleet child: bad %s: %v\n", childEnv, err)
		os.Exit(2)
	}
	// The parent holds our stdin open for our lifetime; EOF means it died
	// and we must not outlive it as an orphaned listener.
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet child: listen: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("%s%s\n", childReadyPrefix, ln.Addr().String())
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "fleet child: serve: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childProc is one spawned replica process.
type childProc struct {
	cmd   *exec.Cmd
	addr  string    // "http://127.0.0.1:port"
	stdin io.Closer // held open as the child's parent-death watchdog

	killOnce sync.Once
}

// spawnChild re-executes this binary as a replica child, waits for its
// ready line, and confirms /healthz answers over the socket.
func spawnChild(cfg serve.Config, hc *http.Client) (*childProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: resolving own binary: %w", err)
	}
	cj, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding child config: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(cj))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: spawning replica child: %w", err)
	}
	c := &childProc{cmd: cmd, stdin: stdin}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, childReadyPrefix) {
				addrCh <- strings.TrimSpace(strings.TrimPrefix(line, childReadyPrefix))
				break
			}
		}
		// Keep draining so the child never blocks on a full stdout pipe.
		io.Copy(io.Discard, stdout)
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			c.kill()
			return nil, fmt.Errorf("fleet: replica child exited before announcing its address")
		}
		c.addr = "http://" + addr
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, fmt.Errorf("fleet: replica child never announced its address")
	}
	if err := waitHealthy(c.addr, hc, 30*time.Second); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// kill terminates the child hard — a real process exit, the cross-process
// analogue of KillReplica's transport cutoff — and reaps it.
func (c *childProc) kill() {
	c.killOnce.Do(func() {
		c.stdin.Close()
		c.cmd.Process.Kill()
		c.cmd.Wait()
	})
}

// waitHealthy polls a replica's /healthz until it answers 200.
func waitHealthy(base string, hc *http.Client, within time.Duration) error {
	deadline := time.Now().Add(within)
	var lastErr error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			cancel()
			return err
		}
		resp, err := hc.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz returned %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("fleet: replica at %s never became healthy: %v", base, lastErr)
}
