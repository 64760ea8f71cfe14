package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Health states of one replica, as tracked by the router.
const (
	stateHealthy int32 = iota
	stateEjected
	stateProbing
)

// ErrReplicaDown is the transport-level failure a killed replica returns;
// it plays the role a connection refusal would over real sockets (and for a
// killed child process, a connection refusal is exactly what the transport
// would produce).
var ErrReplicaDown = errors.New("fleet: replica down")

// faults is the per-replica fault injector the cluster simulator and the
// failover tests drive. All knobs are safe for concurrent use.
type faults struct {
	// spike holds a latency to inject into the next spikeN requests.
	spike  atomic.Int64 // time.Duration
	spikeN atomic.Int64
	// failN makes the next N requests fail at the transport level (after
	// any injected latency), as a crashed-mid-request replica would.
	failN atomic.Int64
}

// takeSpike consumes one pending latency spike, if any.
func (f *faults) takeSpike() time.Duration {
	for {
		n := f.spikeN.Load()
		if n <= 0 {
			return 0
		}
		if f.spikeN.CompareAndSwap(n, n-1) {
			return time.Duration(f.spike.Load())
		}
	}
}

// takeFail consumes one pending injected failure, if any.
func (f *faults) takeFail() bool {
	for {
		n := f.failN.Load()
		if n <= 0 {
			return false
		}
		if f.failN.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// replica is the router's view of one replica server, reached through a
// transport: liveness, health state, in-flight gauge, and the fault
// injector. The server itself may live in this process (memTransport), in a
// spawned child process, or behind an attached peer address (httpTransport).
type replica struct {
	idx int

	// mu guards tr and proc across kill/restart; requests read them under
	// RLock, restart swaps them under Lock. In-flight exchanges on a
	// replaced transport finish against the old instance and are discarded.
	mu   sync.RWMutex
	tr   transport
	proc *childProc // non-nil only for spawned child processes

	alive    atomic.Bool
	inflight atomic.Int64

	// Health machine (owned by the router): state is one of stateHealthy /
	// stateEjected / stateProbing; fails counts consecutive transport
	// failures; ejectedAt is the router's request counter at ejection, the
	// clock the probe cooldown is measured against.
	state     atomic.Int32
	fails     atomic.Int32
	ejectedAt atomic.Uint64

	faults faults
}

// newReplica builds a live replica behind the given transport.
func newReplica(idx int, tr transport) *replica {
	rep := &replica{idx: idx, tr: tr}
	rep.alive.Store(true)
	return rep
}

// transport returns the replica's current transport.
func (rep *replica) transport() transport {
	rep.mu.RLock()
	defer rep.mu.RUnlock()
	return rep.tr
}

// do executes one routed request against the replica, honoring injected
// faults and the context deadline. Transport-level failures (down, injected
// crash, refused connection, timeout) come back as errors; HTTP-level
// failures come back as responses. The fault injector sits in front of the
// transport so both implementations misbehave identically under test.
func (rep *replica) do(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error) {
	if !rep.alive.Load() {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, ErrReplicaDown)
	}
	if d := rep.faults.takeSpike(); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, ctx.Err())
		}
	}
	if rep.faults.takeFail() {
		return nil, fmt.Errorf("fleet: replica %d: injected failure: %w", rep.idx, ErrReplicaDown)
	}
	tr := rep.transport()
	if tr == nil || !rep.alive.Load() {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, ErrReplicaDown)
	}
	resp, err := tr.do(ctx, method, path, header, body)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, err)
	}
	return resp, nil
}

// control executes one control-plane request (publish, refresh, snapshot,
// digest) against the replica. Unlike do it bypasses the fault injector:
// injected faults model data-path chaos and are consumed only by routed
// traffic, so failover tests stay exact.
func (rep *replica) control(ctx context.Context, method, path string, header http.Header, body []byte) (*response, error) {
	if !rep.alive.Load() {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, ErrReplicaDown)
	}
	tr := rep.transport()
	if tr == nil {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, ErrReplicaDown)
	}
	resp, err := tr.do(ctx, method, path, header, body)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %d: %w", rep.idx, err)
	}
	return resp, nil
}
