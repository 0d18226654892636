//go:build linux

package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strconv"
	"syscall"
	"unsafe"
)

// instrCounter counts the user-space instructions every thread of the
// process retires, with the CPU's hardware counter (perf_event_open).
//
// It is the benchmark's measure of work: on a shared host the same
// curriculum run takes anywhere from 1.0 to 1.9 s of wall and CPU time
// from one run to the next (the cycles grow with the load of the other
// tenants), while its instruction count repeats to within 0.05%.
//
// One counter is opened per thread that exists when the benchmark starts,
// with inherit set, so every thread the Go runtime creates later (a clone
// of a counted thread) is counted too; reading a counter sums it and all
// its inherited children.
type instrCounter struct {
	fds []int
}

// perfEventAttr is the head of struct perf_event_attr; the zero tail makes
// it the kernel's PERF_ATTR_SIZE_VER8 (136 bytes).
type perfEventAttr struct {
	typ, size  uint32
	config     uint64
	sample     uint64
	sampleType uint64
	readFormat uint64
	flags      uint64
	_          [88]byte
}

const (
	perfTypeHardware   = 0
	perfHWInstructions = 1
	// flags bits of perf_event_attr
	perfInherit       = 1 << 1
	perfExcludeKernel = 1 << 5
	perfExcludeHV     = 1 << 6
)

// newInstrCounter opens the counters. It retries until the set of threads
// is the same before and after opening, so no thread created meanwhile
// escapes (or is counted twice).
func newInstrCounter() (*instrCounter, error) {
	for attempt := 0; attempt < 10; attempt++ {
		before, err := threadIDs()
		if err != nil {
			return nil, err
		}
		c := &instrCounter{}
		for _, tid := range before {
			fd, err := openInstr(tid)
			if err != nil {
				c.close()
				return nil, err
			}
			c.fds = append(c.fds, fd)
		}
		after, err := threadIDs()
		if err != nil {
			c.close()
			return nil, err
		}
		if slices.Equal(before, after) {
			return c, nil
		}
		c.close()
	}
	return nil, fmt.Errorf("instruction counter: the process kept creating threads")
}

func threadIDs() ([]int, error) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, fmt.Errorf("list threads: %w", err)
	}
	ids := make([]int, 0, len(ents))
	for _, e := range ents {
		id, err := strconv.Atoi(e.Name())
		if err != nil {
			return nil, fmt.Errorf("list threads: %w", err)
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, nil
}

func openInstr(tid int) (int, error) {
	attr := perfEventAttr{
		typ:    perfTypeHardware,
		config: perfHWInstructions,
		flags:  perfInherit | perfExcludeKernel | perfExcludeHV,
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)),
		uintptr(tid), ^uintptr(0), ^uintptr(0), 0, 0) // any CPU, no group, no flags
	if errno != 0 {
		return 0, fmt.Errorf("perf_event_open (hardware instruction counter) for thread %d: %w", tid, errno)
	}
	syscall.CloseOnExec(int(fd))
	return int(fd), nil
}

// read returns the instructions retired so far by every thread (0 on a nil
// counter, as in the benchmark's unit tests).
func (c *instrCounter) read() (uint64, error) {
	if c == nil {
		return 0, nil
	}
	var sum uint64
	var b [8]byte
	for _, fd := range c.fds {
		if n, err := syscall.Read(fd, b[:]); err != nil || n != len(b) {
			return 0, fmt.Errorf("read instruction counter: %v (%d bytes)", err, n)
		}
		sum += binary.LittleEndian.Uint64(b[:])
	}
	return sum, nil
}

func (c *instrCounter) close() {
	if c == nil {
		return
	}
	for _, fd := range c.fds {
		syscall.Close(fd)
	}
	c.fds = nil
}
