package defense

import (
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// BenchmarkDefenseDirective measures the verdict -> directive hot
// path: one flagged spoof verdict plus one fence drop per iteration
// over a rotating 1024-MAC working set (state creation, decay,
// scoring, and the quarantine/null-steer transitions on the first
// cycle; steady-state scoring afterwards) — the per-packet cost the
// controller pays to keep the loop closed.
func BenchmarkDefenseDirective(b *testing.B) {
	e := MustNew(Config{
		MaxClients:   1 << 16,
		TickInterval: time.Hour, // sweeping excluded; measured path only
		Emit:         func(Directive) {},
	})
	defer e.Close()

	macs := make([]wifi.Addr, 1024)
	for i := range macs {
		macs[i] = wifi.Addr{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
	}
	pos := geom.Point{X: -3, Y: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := macs[i%len(macs)]
		e.ReportSpoof(SpoofVerdict{
			AP: "ap1", MAC: m, Flagged: true,
			Distance: 0.5, Threshold: 0.12, BearingDeg: 42, HasBearing: true,
		})
		e.ReportFence(FenceVerdict{MAC: m, Seq: uint64(i), Pos: pos, Allowed: false})
	}
}

// BenchmarkDefenseDirectiveParallel is the same path under concurrent
// ingest — sweep -cpu to see the MAC sharding avoid lock contention.
func BenchmarkDefenseDirectiveParallel(b *testing.B) {
	e := MustNew(Config{
		MaxClients:   1 << 16,
		TickInterval: time.Hour,
		Emit:         func(Directive) {},
	})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			m := wifi.Addr{0x02, 1, 0, byte(i >> 16), byte(i >> 8), byte(i)}
			e.ReportSpoof(SpoofVerdict{
				AP: "ap1", MAC: m, Flagged: true,
				Distance: 0.5, Threshold: 0.12, BearingDeg: 42, HasBearing: true,
			})
		}
	})
}

// sweepEngine is an engine on a frozen clock holding n quarantined
// clients that a sweep at that instant leaves in place: the steady state
// of the 50 ms ticker between transitions.
func sweepEngine(tb testing.TB, n int) (*Engine, time.Time) {
	now := time.Unix(1_700_000_000, 0)
	e := MustNew(Config{
		TickInterval: time.Hour, // Sweep is driven by hand
		Emit:         func(Directive) {},
		Clock:        func() time.Time { return now },
	})
	tb.Cleanup(e.Close)
	for i := 0; i < n; i++ {
		e.ReportSpoof(SpoofVerdict{
			AP: "ap1", MAC: wifi.Addr{0x02, 0, 0, 0, byte(i >> 8), byte(i)}, Flagged: true,
			Distance: 0.5, Threshold: 0.12,
		})
	}
	return e, now
}

// BenchmarkDefenseSweep measures one ticker sweep over 450 live threats
// with no transition due: every shard's MACs gathered and sorted.
func BenchmarkDefenseSweep(b *testing.B) {
	e, now := sweepEngine(b, 450)
	e.Sweep(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sweep(now)
	}
}
