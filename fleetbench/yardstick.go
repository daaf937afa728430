package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end rate and trial times are reported in reference time:
// each fleet run's wall times divided by how much slower than nominal the
// host ran a fixed yardstick right after it. The benchmark runs on a few
// cores of a shared host, where neighbouring load moves the speed of
// memory-bound code by tens of percent from one minute to the next, so
// wall-clock medians from a slow and a fast stretch differ by more than
// any change worth catching.
//
// The yardstick is random read-modify-writes over two private buffers,
// one of 1 MiB and one of 4 MiB, which brackets the program's working set
// (a live heap of about 2 MiB on the probes and 6 MiB on defend) and so
// meets the same cache and memory contention. The slowness is the
// geometric mean of each buffer's time over its nominal time. The buffers
// are mapped outside the Go heap, so the collector never sees them and
// the heap metrics do not count them, and the yardstick calls no code of
// the program, so no change to the program can speed it up or slow it
// down. A collection is forced before each timing so the collector's
// background work, which a change to the program could move, is finished
// when it starts.
const (
	yardstickIters = 1_000_000
	yardstickSmall = 1 << 20 // bytes
	yardstickLarge = 4 << 20
	// The nominal times are typical of the host the benchmark was tuned
	// on (a 2-vCPU Xeon VM, Go 1.24), so reference and wall times are of
	// the same size there.
	yardstickSmallNominal = 2500 * time.Microsecond
	yardstickLargeNominal = 6 * time.Millisecond
)

// yardstickBufs are the two buffers, mapped on first use.
var yardstickBufs [2][]uint64

// yardstick forces a collection, times yardstickIters random
// read-modify-writes over each buffer and returns the host's slowness: a
// wall time divided by it is a reference time.
func yardstick() (float64, error) {
	if yardstickBufs[0] == nil {
		for i, size := range []int{yardstickSmall, yardstickLarge} {
			mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return 0, fmt.Errorf("yardstick: %w", err)
			}
			yardstickBufs[i] = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8)
		}
	}
	runtime.GC()
	small, large := scribble(yardstickBufs[0]), scribble(yardstickBufs[1])
	return math.Sqrt(small.Seconds() / yardstickSmallNominal.Seconds() * large.Seconds() / yardstickLargeNominal.Seconds()), nil
}

// scribble times yardstickIters read-modify-writes at splitmix64-drawn
// indexes of buf, whose length is a power of two.
func scribble(buf []uint64) time.Duration {
	mask := uint64(len(buf) - 1)
	t0 := time.Now()
	x := uint64(0)
	for i := 0; i < yardstickIters; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		buf[z&mask] += z
	}
	return time.Since(t0)
}
