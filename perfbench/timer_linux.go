//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps with microsecond precision. time.Sleep cannot: once every
// P is idle the runtime parks in epoll_pwait with a whole-millisecond
// timeout, so a 25 µs sleep overshoots by about 1 ms, which at 40 k
// requests/s would make the generator, not the server, dominate latency. A
// timerfd registered with the runtime's poller wakes that same epoll_pwait
// the moment it fires (a few µs late on the baseline host).
type waiter struct {
	f  *os.File
	fd uintptr
}

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

const clockMonotonic = 1

func newWaiter() (*waiter, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// runtime poller, so Read parks the goroutine, not the thread.
	return &waiter{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d (no-op when d <= 0).
func (w *waiter) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := w.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (w *waiter) close() error { return w.f.Close() }
