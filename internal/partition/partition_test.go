package partition

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

func testFence() *locate.Fence {
	return &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
}

func testSet(t testing.TB, n int, emit func(fusion.Decision, fusion.TrackState)) *Set {
	t.Helper()
	if emit == nil {
		emit = func(fusion.Decision, fusion.TrackState) {}
	}
	s, err := New(n,
		func(p int) fusion.Config {
			return fusion.Config{
				Fence:        testFence(),
				APCount:      func() int { return 2 },
				TickInterval: time.Hour,
				Emit:         emit,
			}
		},
		func(p int) defense.Config {
			return defense.Config{
				TickInterval: time.Hour,
				Emit:         func(defense.Directive) {},
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func macFromU48(v uint64) wifi.Addr {
	return wifi.Addr{
		byte(v >> 40), byte(v >> 32), byte(v >> 24),
		byte(v >> 16), byte(v >> 8), byte(v),
	}
}

// TestIndexForProperties pins the range-partitioner contract: indexes
// stay in [0, n), are monotone in the MAC's 48-bit value (range, not
// hash, partitioning), hit both edge partitions at the address-space
// edges, and cover every partition over a uniform spread.
func TestPartitionIndexForProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 16, 255, MaxPartitions} {
		lo, hi := macFromU48(0), macFromU48(1<<48-1)
		if got := IndexFor(lo, n); got != 0 {
			t.Fatalf("n=%d: IndexFor(00:...:00) = %d, want 0", n, got)
		}
		if got := IndexFor(hi, n); got != n-1 {
			t.Fatalf("n=%d: IndexFor(ff:...:ff) = %d, want %d", n, got, n-1)
		}
		seen := make(map[int]bool)
		prev := 0
		const samples = 1 << 12
		for i := 0; i < samples; i++ {
			v := uint64(i) * ((1 << 48) / samples)
			idx := IndexFor(macFromU48(v), n)
			if idx < 0 || idx >= n {
				t.Fatalf("n=%d: IndexFor(%012x) = %d out of range", n, v, idx)
			}
			if idx < prev {
				t.Fatalf("n=%d: index not monotone at %012x: %d after %d", n, v, idx, prev)
			}
			prev = idx
			seen[idx] = true
		}
		if n <= samples && len(seen) != n {
			t.Fatalf("n=%d: uniform spread hit only %d partitions", n, len(seen))
		}
	}
}

// TestSetRoutesByRange verifies Set routing agrees with IndexFor and
// that per-partition state lands where the range says it must.
func TestPartitionSetRoutesByRange(t *testing.T) {
	s := testSet(t, 4, nil)
	macs := []wifi.Addr{
		macFromU48(0),                 // p0
		macFromU48(1 << 46),           // p1
		macFromU48(1 << 47),           // p2
		macFromU48(1<<47 | 1<<46 | 5), // p3
	}
	for i, mac := range macs {
		if got := s.IndexFor(mac); got != i {
			t.Fatalf("IndexFor(%v) = %d, want %d", mac, got, i)
		}
		s.ReportSpoof(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12})
		if _, ok := s.At(i).Defense.State(mac); !ok {
			t.Fatalf("verdict for %v did not land in partition %d", mac, i)
		}
		for p := 0; p < s.N(); p++ {
			if p == i {
				continue
			}
			if _, ok := s.At(p).Defense.State(mac); ok {
				t.Fatalf("verdict for %v leaked into partition %d", mac, p)
			}
		}
	}
}

// TestSetFanIn verifies the fan-in accessors: sums match per-partition
// stats, and the merged snapshots are MAC-sorted across partitions.
func TestPartitionSetFanIn(t *testing.T) {
	decisions := 0
	s := testSet(t, 4, func(fusion.Decision, fusion.TrackState) { decisions++ })
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	const clients = 32
	for i := clients - 1; i >= 0; i-- { // reverse order: sorting must be real
		mac := macFromU48(uint64(i) << 43)
		s.Ingest(fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: 1, Deg: geom.BearingDeg(ap1, target)})
		s.Ingest(fusion.Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: 1, Deg: geom.BearingDeg(ap2, target)})
	}
	if decisions != clients {
		t.Fatalf("decisions = %d, want %d", decisions, clients)
	}
	sum := s.Stats()
	if sum.Ingested != 2*clients || sum.Decisions != clients {
		t.Fatalf("summed stats = %+v", sum)
	}
	per := s.PartitionStats()
	if len(per) != 4 {
		t.Fatalf("PartitionStats len = %d", len(per))
	}
	var perSum uint64
	active := 0
	for _, st := range per {
		perSum += st.Ingested
		if st.Ingested > 0 {
			active++
		}
	}
	if perSum != sum.Ingested {
		t.Fatalf("per-partition ingested %d != summed %d", perSum, sum.Ingested)
	}
	if active < 2 {
		t.Fatalf("MAC spread exercised only %d partitions", active)
	}
	if got := s.ClientCount(); got != clients {
		t.Fatalf("ClientCount = %d, want %d", got, clients)
	}
	snap := s.Snapshot()
	if len(snap) != clients {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), clients)
	}
	for i := 1; i < len(snap); i++ {
		if !macLess(snap[i-1].MAC, snap[i].MAC) {
			t.Fatalf("Snapshot not MAC-sorted at %d: %v !< %v", i, snap[i-1].MAC, snap[i].MAC)
		}
	}

	// Threat fan-in: quarantine two clients in different partitions.
	for _, v := range []uint64{1 << 40, 1 << 47} {
		s.ReportSpoof(defense.SpoofVerdict{AP: "ap1", MAC: macFromU48(v), Flagged: true, Distance: 0.9, Threshold: 0.12})
	}
	q := s.Quarantined()
	if len(q) != 2 || !macLess(q[0].MAC, q[1].MAC) {
		t.Fatalf("Quarantined = %+v", q)
	}
	_, _, quar := s.StateCounts()
	if quar != 2 {
		t.Fatalf("StateCounts quarantine = %d, want 2", quar)
	}
	if ds := s.DefenseStats(); ds.Quarantines != 2 || ds.SpoofVerdicts != 2 {
		t.Fatalf("DefenseStats = %+v", ds)
	}
}

func TestPartitionNewValidation(t *testing.T) {
	fcfg := func(int) fusion.Config {
		return fusion.Config{Fence: testFence(), TickInterval: time.Hour}
	}
	dcfg := func(int) defense.Config {
		return defense.Config{TickInterval: time.Hour}
	}
	if _, err := New(0, fcfg, dcfg); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(MaxPartitions+1, fcfg, dcfg); err == nil {
		t.Errorf("New(%d) succeeded", MaxPartitions+1)
	}
	// A mid-construction failure must not leak the partitions already
	// built (verified by the error surfacing the failing index).
	_, err := New(4, func(p int) fusion.Config {
		if p == 2 {
			return fusion.Config{} // nil fence: invalid
		}
		return fcfg(p)
	}, dcfg)
	if err == nil {
		t.Fatal("New with invalid partition-2 config succeeded")
	}
}

// benchSet builds a Set whose TOTAL client capacity is the single-
// engine default regardless of the partition count, by splitting
// MaxClients across partitions. Without this, parts=1 runs at its cap
// (bounded live heap, evicting) while parts=4/16 hold every minted
// client live — and the parts= comparison measures GC mark cost of
// different client populations instead of routing cost.
func benchSet(b *testing.B, parts int) *Set {
	b.Helper()
	s, err := New(parts,
		func(p int) fusion.Config {
			return fusion.Config{
				Fence:        testFence(),
				APCount:      func() int { return 2 },
				TickInterval: time.Hour,
				MaxClients:   fusion.DefaultMaxClients / parts,
				Emit:         func(fusion.Decision, fusion.TrackState) {},
			}
		},
		func(p int) defense.Config {
			return defense.Config{
				TickInterval: time.Hour,
				Emit:         func(defense.Directive) {},
			}
		})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkPartitionIngest measures the partitioned hot path — MAC
// route + sharded fusion ingest, two bearings fusing per transmission —
// at 1, 4, and 16 partitions. Sweep -cpu to see route fan-out relieve
// engine-level contention.
func BenchmarkPartitionIngest(b *testing.B) {
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	deg1, deg2 := geom.BearingDeg(ap1, target), geom.BearingDeg(ap2, target)
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			s := benchSet(b, parts)
			// Collect the previous sub-benchmark's dead client population
			// before timing: each op below mints a fresh MAC, so a run
			// leaves a large heap behind, and without this the later
			// sub-benches inherit the earlier ones' GC debt — parts=4
			// measured slower than parts=1 purely by running second.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var seq uint64
				for pb.Next() {
					seq++
					mac := macFromU48(seq << 29) // spread the high bits
					s.Ingest(fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: deg1})
					s.Ingest(fusion.Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: seq, Deg: deg2})
				}
			})
		})
	}
}
