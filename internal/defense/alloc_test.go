package defense

import (
	"math"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// TestReportPathAllocs pins the steady-state verdict-report path at
// zero allocations: once a client's threat state exists, scoring a
// spoof verdict and a fence verdict must touch only pre-existing
// sharded state (the BENCH_PR5 level the closed loop was built at).
func TestReportPathAllocs(t *testing.T) {
	e := MustNew(Config{
		MaxClients:   1 << 10,
		TickInterval: time.Hour,
		Emit:         func(Directive) {},
	})
	defer e.Close()

	m := wifi.Addr{0x02, 0, 0, 0, 0, 1}
	pos := geom.Point{X: -3, Y: 2}
	seq := uint64(0)
	report := func() {
		seq++
		e.ReportSpoof(SpoofVerdict{
			AP: "ap1", MAC: m, Flagged: true,
			Distance: 0.5, Threshold: 0.12, BearingDeg: 42, HasBearing: true,
		})
		e.ReportFence(FenceVerdict{MAC: m, Seq: seq, Pos: pos, Allowed: false})
	}
	// First cycle creates the threat state and fires the quarantine /
	// null-steer transitions; afterwards the path is pure scoring.
	for i := 0; i < 10; i++ {
		report()
	}
	// Best of a few attempts: sharded state is steady, but a GC pass
	// inside one window can charge unrelated runtime refills here.
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 0; attempt++ {
		best = math.Min(best, testing.AllocsPerRun(200, report))
	}
	if best > 0 {
		t.Errorf("steady-state report path: %.1f allocs, want 0", best)
	}
}

// TestSweepAllocs pins a sweep with no transition due at zero
// allocations: each shard gathers and sorts its MACs in a reused buffer.
func TestSweepAllocs(t *testing.T) {
	e, now := sweepEngine(t, 450)
	e.Sweep(now)
	if got := e.Stats().Quarantines; got != 450 {
		t.Fatalf("quarantines = %d, want 450", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Sweep(now) }); allocs != 0 {
		t.Errorf("sweep: %v allocs, want 0", allocs)
	}
	if got := e.Stats().Releases; got != 0 {
		t.Errorf("steady sweeps released %d clients", got)
	}
}
