package secureangle

import (
	"context"
	"math"
	"testing"
)

// TestPacketPathAllocs pins the steady-state allocation count of the
// full per-packet pipeline — receive synthesis, detection, covariance,
// eigendecomposition, pseudospectrum, grid-free bearing, signature —
// at the zero-alloc overhaul's level. Everything transient lives in the
// AP's pooled scratch arena; only the Report and the slices it hands
// the caller (spectrum values, signature energy) may allocate. A
// regression here means a scratch buffer escaped the pool or a cache
// stopped hitting.
func TestPacketPathAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc counts are unstable")
	}
	ap := testAP(t, "alloc", 1)
	ctx := context.Background()
	client, err := Client(5)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every cache and pool: baseband modulation, clean-capture
	// replay, scratch arena growth, sync.Pool population.
	for i := 0; i < 5; i++ {
		if _, err := observeTestbedFrame(ctx, ap, client); err != nil {
			t.Fatal(err)
		}
	}
	// Take the best of a few attempts: a GC pass landing inside one
	// measurement window empties the scratch sync.Pool and the refill
	// shows up as phantom allocs. A real regression fails every attempt.
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 10; attempt++ {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := observeTestbedFrame(ctx, ap, client); err != nil {
				t.Fatal(err)
			}
		})
		best = math.Min(best, allocs)
	}
	// Measured 5 on the overhaul; 10 is the issue's acceptance ceiling.
	if best > 10 {
		t.Errorf("testbed frame observe steady state: %.1f allocs/op, want <= 10", best)
	}
}
