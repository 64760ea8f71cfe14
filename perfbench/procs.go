package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServers compiles rpserve and rpfleet from the checkout at root into
// dir, with the go toolchain and environment the benchmark itself runs
// under.
func buildServers(root, dir string) (rpserve, rpfleet string, err error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/rpserve", "./cmd/rpfleet")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return filepath.Join(dir, "rpserve"), filepath.Join(dir, "rpfleet"), nil
}

// server is one launched server process (rpserve or rpfleet). It runs in a
// process group of its own, so stop also reaches the replica children an
// rpfleet -procs spawns.
type server struct {
	cmd  *exec.Cmd
	Base string // http://127.0.0.1:port
	done chan struct{}
	log  *os.File

	stopOnce sync.Once
	stopErr  error
}

// live tracks every launched server, so an early exit can still stop them.
var live struct {
	sync.Mutex
	m map[*server]bool
}

// launch starts bin on a free loopback port with args, logging to logPath.
func launch(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	s := &server{cmd: cmd, Base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{}), log: lf}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	live.Lock()
	if live.m == nil {
		live.m = make(map[*server]bool)
	}
	live.m[s] = true
	live.Unlock()
	return s, nil
}

// freePort returns an unused loopback port below the kernel's ephemeral
// range. A port from that range is free only until the kernel hands it out
// again, for example to a listener of the fleet's replica children, which
// start before the router binds its own address; ports below the range
// are taken by explicit binds only.
func freePort() (int, error) {
	// The kernel's usual start of the range, kept if the file cannot be read
	// or parsed.
	lo := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		_, _ = fmt.Sscan(string(b), &lo)
	}
	for try := 0; try < 100 && lo > 1024; try++ {
		port := 1024 + rand.IntN(lo-1024)
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			l.Close()
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port below %d", lo)
}

// waitHealthy polls /healthz until the server answers 200.
func (s *server) waitHealthy(within time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(within)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited during start-up: %s", filepath.Base(s.cmd.Path), s.logTail())
		default:
		}
		resp, err := hc.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %s", filepath.Base(s.cmd.Path), within, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines of the server's log.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// tree returns the server's process and all its descendants.
func (s *server) tree() []int {
	var out []int
	var walk func(pid int)
	walk = func(pid int) {
		out = append(out, pid)
		tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		for _, t := range tasks {
			b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/children", pid, t.Name()))
			if err != nil {
				continue
			}
			for _, f := range strings.Fields(string(b)) {
				if c, err := strconv.Atoi(f); err == nil {
					walk(c)
				}
			}
		}
	}
	walk(s.cmd.Process.Pid)
	return out
}

// peakRSSMiB sums the peak resident set (VmHWM) over the server's process
// tree.
func (s *server) peakRSSMiB() (float64, error) {
	var kb int64
	for _, pid := range s.tree() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
				}
				kb += n
			}
		}
	}
	return float64(kb) / 1024, nil
}

// stop kills the server's process group and waits until the server and
// every descendant have ended. Calls after the first return its result.
func (s *server) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.kill() })
	return s.stopErr
}

func (s *server) kill() error {
	live.Lock()
	delete(live.m, s)
	live.Unlock()
	pids := s.tree()
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	defer s.log.Close()
	deadline := time.Now().Add(20 * time.Second)
	select {
	case <-s.done:
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("server %d did not exit", s.cmd.Process.Pid)
	}
	for _, pid := range pids[1:] {
		for running(pid) {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica process %d did not exit", pid)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// running reports whether pid is a process that has not yet exited; a
// zombie has exited.
func running(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesized command name.
	i := bytes.LastIndexByte(b, ')')
	return i >= 0 && i+2 < len(b) && b[i+2] != 'Z' && b[i+2] != 'X'
}

// stopAll stops every server still running; used on early exit.
func stopAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}
