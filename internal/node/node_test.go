package node

import (
	"testing"

	"hyades/internal/units"
)

// TestCostCharging pins the calibrated charges package comm makes
// against the node constants: a cached copy, a cache-missing copy and
// one semaphore operation.
func TestCostCharging(t *testing.T) {
	got := MemcpyBandwidth.Transfer(3_000_000) + // 3 MB at 300 MB/s = 10 ms
		UncachedCopyBandwidth.Transfer(1_500_000) + // 1.5 MB at 150 MB/s = 10 ms
		SemaphoreCost
	want := 20*units.Millisecond + 300*units.Nanosecond
	if got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
}
