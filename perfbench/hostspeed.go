package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small VM on a shared machine.
// Its speed moves by up to 2.3x over minutes: the hypervisor steals up
// to a third of the CPU in episodes that last ten minutes and more,
// and the neighbours behind the steal also slow the CPU time an op
// takes (synth-wan's CPU per op rose from 50 to 73 ms at 27% steal).
// A 30 s run sits wholly inside or outside such an episode, so no
// amount of work inside one run evens it out.
//
// Each untraced run therefore also times a reference kernel: fixed work
// that belongs to the benchmark, not to the program, run in short
// slices between ops, when the program is idle. Its mean slice time
// over the run, against its time on a quiet host, is the run's host
// slowdown. Wall-clock metrics are divided by the slowdown of the
// slices' wall time, which steal and contention both stretch; CPU per
// op by that of the slices' thread CPU time, which contention stretches
// but stolen time does not. A change to the program cannot move the
// kernel, so it moves the normalized metrics as it moves the raw ones.
// The raw values stay in the diagnostics.

const (
	// refEntries is the kernel's working set: a random cycle over
	// this many uint32 indices, 256 KiB, which spills the L1 cache but
	// fits in L2.
	refEntries = 1 << 16
	// refSteps is the work of one slice, about 4 ms on the reference
	// host.
	refSteps = 300_000
	// refNominal is the slice time that counts as a slowdown of 1: a
	// round value near the fastest slices on the reference host, a
	// 2-vCPU Intel Xeon VM. At under 1% steal the mean slice there
	// took 4.4-4.8 ms; the rest is the neighbours' contention.
	refNominal = 4 * time.Millisecond
	// refEvery is the least time between the end of one slice and
	// the start of the next; a slice runs after the first op past it.
	refEvery = 40 * time.Millisecond
)

// refSink keeps the compiler from dropping the kernel's arithmetic.
var refSink float64

// hostSpeed runs the reference kernel and sums its slices.
type hostSpeed struct {
	next      []uint32
	pos       uint32
	last      time.Time
	slices    int
	wall, cpu time.Duration
	walls     []float64
}

func newHostSpeed() *hostSpeed { return &hostSpeed{next: refTable()} }

// refTable is the kernel's working set. Sattolo's shuffle makes one
// cycle through every entry, so the chase never settles into a short
// loop that fits in cache.
func refTable() []uint32 {
	next := make([]uint32, refEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	r := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// refWork runs the kernel for the given steps from position p of the
// table and returns the position it stopped at.
func refWork(next []uint32, p uint32, steps int) uint32 {
	acc := 0.0
	for s := 0; s < steps; s++ {
		p = next[p]
		x := float64(p&1023) * 1e-3
		for j := 0; j < 4; j++ {
			x = 0.5*x + math.Sqrt(x*x+1)
		}
		acc += x
	}
	refSink = acc
	return p
}

// slice runs one slice of the kernel on a locked thread and adds its
// wall and thread CPU time.
func (h *hostSpeed) slice() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, err := threadCPU()
	if err != nil {
		return err
	}
	t0 := time.Now()
	h.pos = refWork(h.next, h.pos, refSteps)
	h.last = time.Now()
	c1, err := threadCPU()
	if err != nil {
		return err
	}
	h.wall += h.last.Sub(t0)
	h.walls = append(h.walls, ms(h.last.Sub(t0)))
	h.cpu += c1 - c0
	h.slices++
	return nil
}

// maybeSlice runs a slice if refEvery has passed since the last one.
// It returns the time it took, which the caller leaves out of the
// timed phase.
func (h *hostSpeed) maybeSlice() (time.Duration, error) {
	if time.Since(h.last) < refEvery {
		return 0, nil
	}
	t0 := time.Now()
	err := h.slice()
	return time.Since(t0), err
}

// wallFactor and cpuFactor are the run's host slowdowns: the mean
// slice's wall and thread CPU time over refNominal.
func (h *hostSpeed) wallFactor() float64 {
	return float64(h.wall) / float64(h.slices) / float64(refNominal)
}

func (h *hostSpeed) cpuFactor() float64 {
	return float64(h.cpu) / float64(h.slices) / float64(refNominal)
}

// threadCPU is the calling thread's CPU time so far, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID); time the hypervisor stole is
// not in it. Neither getrusage(RUSAGE_THREAD), which splits the time by
// sampled ticks, nor /proc/thread-self/schedstat, which lags the
// running thread by up to a tick, is exact over a 4 ms slice: they
// read 40% and 60% of it. The caller must hold its OS thread.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
