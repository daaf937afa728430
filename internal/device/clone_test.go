package device

import (
	"runtime/debug"
	"testing"
)

// TestCloneAllocatesOneCount holds every cold clone of one template to
// the same allocation count. A clone materializes its apps in uid order
// and its hosts in spawn order, so the kernel's process table grows in
// the same steps on every clone; when the clone walked its hosts and
// apps in map order, one clone in seven allocated once more than the
// rest, and BenchmarkDeviceClone's allocs/op gate held a mean over map
// orders.
func TestCloneAllocatesOneCount(t *testing.T) {
	tmpl, err := BootFresh(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Snapshot()
	if _, err := tmpl.CloneWithSeed(0); err != nil { // warm up
		t.Fatal(err)
	}
	// A collection allocates for itself (its first starts the mark
	// workers, and a contended semaphore takes a fresh sudog after it
	// empties the central cache), and AllocsPerRun would count that
	// against whichever clone it fell in. 400 clones leave about 20 MB.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var first float64
	for i := 0; i < 200; i++ {
		var cloneErr error
		n := testing.AllocsPerRun(1, func() { _, cloneErr = tmpl.CloneWithSeed(int64(i)) })
		if cloneErr != nil {
			t.Fatal(cloneErr)
		}
		if i == 0 {
			first = n
		} else if n != first {
			t.Fatalf("clone %d allocated %v times, clone 0 %v", i, n, first)
		}
	}
}
