package main

import (
	"errors"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a CPU affinity mask as sched_setaffinity takes it.
type cpuMask [16]uint64

// call makes the affinity system call trap on m for thread tid, where 0 is
// the calling thread.
func (m *cpuMask) call(trap, tid uintptr) error {
	if _, _, e := syscall.RawSyscall(trap, tid, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// setThreads gives every thread of this process the mask m. A thread the
// runtime starts meanwhile inherits its creator's mask, so passes repeat
// until one finds no thread that has not been set.
func setThreads(m *cpuMask) error {
	set := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || set[tid] {
				continue
			}
			if err := m.call(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid)); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			set[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// pinOneCPU moves this process, and every process it starts from then on,
// onto the first CPU it may use, and runs Go code on one processor; a Go
// child reads the mask at start and takes one processor too. It returns
// the CPU and a function that restores the previous mask and processor
// count; calling it again is harmless.
func pinOneCPU() (int, func() error, error) {
	var old cpuMask
	if err := old.call(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		return 0, nil, err
	}
	cpu := -1
	for i, w := range old {
		if w != 0 {
			cpu = 64*i + bits.TrailingZeros64(w)
			break
		}
	}
	if cpu < 0 {
		return 0, nil, errors.New("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setThreads(&one); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() error {
		runtime.GOMAXPROCS(procs)
		return setThreads(&old)
	}, nil
}
