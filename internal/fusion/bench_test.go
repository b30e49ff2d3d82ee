package fusion

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// seedFuser reimplements the seed controller's fusion state — one
// mutex, unbounded pending/decided maps — as the baseline
// BenchmarkFusionIngest compares the sharded engine against. (It skips
// the seed's per-key time.Timer machinery and diversity guard, which
// only makes it faster than the real seed path.)
type seedFuser struct {
	mu      sync.Mutex
	fence   *locate.Fence
	minAPs  int
	pending map[seedKey]map[string]apBearing
	decided map[seedKey]bool
}

type seedKey struct {
	mac wifi.Addr
	seq uint64
}

func newSeedFuser(fence *locate.Fence) *seedFuser {
	return &seedFuser{
		fence:   fence,
		minAPs:  2,
		pending: make(map[seedKey]map[string]apBearing),
		decided: make(map[seedKey]bool),
	}
}

func (f *seedFuser) ingest(b Bearing) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seedKey{b.MAC, b.Seq}
	if f.decided[key] {
		return
	}
	m := f.pending[key]
	if m == nil {
		m = make(map[string]apBearing)
		f.pending[key] = m
	}
	m[b.AP] = apBearing{pos: b.APPos, deg: b.Deg}
	if len(m) < f.minAPs {
		return
	}
	obs := make([]locate.BearingObs, 0, len(m))
	for _, ab := range m {
		obs = append(obs, locate.BearingObs{AP: ab.pos, BearingDeg: ab.deg})
	}
	if _, _, err := f.fence.Decide(obs); err != nil {
		return
	}
	f.decided[key] = true
	delete(f.pending, key)
}

// benchTargets precomputes bearing pairs toward a spread of inside
// positions so the benchmark loop does no trigonometry of its own.
func benchTargets(n int) [][2]float64 {
	ap1 := geom.Point{X: 4, Y: 2}
	ap2 := geom.Point{X: 20, Y: 3}
	out := make([][2]float64, n)
	for i := range out {
		target := geom.Point{X: 2 + float64(i%20), Y: 2 + float64(i%12)}
		out[i] = [2]float64{geom.BearingDeg(ap1, target), geom.BearingDeg(ap2, target)}
	}
	return out
}

// BenchmarkFusionIngest compares fusion throughput — both bearings of
// a fresh transmission ingested and fused per iteration, spread over
// 1024 client MACs — between the seed's single-mutex design and the
// sharded engine. Run with -cpu 1,2,4 to see the sharded path scale
// with parallel AP connections while the single mutex serialises them:
//
//	go test -bench FusionIngest -cpu 1,2,4 ./internal/fusion
func BenchmarkFusionIngest(b *testing.B) {
	targets := benchTargets(4096)
	ap1 := geom.Point{X: 4, Y: 2}
	ap2 := geom.Point{X: 20, Y: 3}

	run := func(b *testing.B, ingest func(Bearing)) {
		b.ReportAllocs()
		var seq atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s := seq.Add(1)
				m := mac(int(s % 1024))
				t := targets[s%uint64(len(targets))]
				ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: s, Deg: t[0]})
				ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: s, Deg: t[1]})
			}
		})
	}

	b.Run("single-mutex", func(b *testing.B) {
		f := newSeedFuser(testFence())
		run(b, f.ingest)
	})

	b.Run("sharded", func(b *testing.B) {
		e := MustNew(Config{
			Fence: testFence(),
			// Two APs report every transmission, so the all-APs
			// shortcut fuses immediately — the same work per pair as
			// the guard-free baseline.
			APCount:      func() int { return 2 },
			TickInterval: time.Hour,
		})
		defer e.Close()
		run(b, e.Ingest)
	})
}

// BenchmarkFusionNewClient fuses one two-bearing transmission from a
// MAC the engine has never seen, every iteration: the first-contact
// path that creates a client (and, past MaxClients, evicts the
// least-recently-active one). Its allocs/op is the per-client object
// count; B/op is dominated by the client's own state.
func BenchmarkFusionNewClient(b *testing.B) {
	targets := benchTargets(4096)
	ap1 := geom.Point{X: 4, Y: 2}
	ap2 := geom.Point{X: 20, Y: 3}
	e := MustNew(Config{
		Fence:        testFence(),
		APCount:      func() int { return 2 },
		TickInterval: time.Hour,
	})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mac(i)
		t := targets[i%len(targets)]
		e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: 1, Deg: t[0]})
		e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: t[1]})
	}
}
