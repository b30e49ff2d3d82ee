package partition

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// testSetFixed builds a Set with a pinned clock so serial and batch
// runs stamp identical decisions.
func testSetFixed(t testing.TB, n int, emit func(fusion.Decision, fusion.TrackState)) *Set {
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
				Clock:        func() time.Time { return time.Unix(1000, 0) },
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

// setWorkload spreads transmissions over every partition of a 4-way
// split, with repeated same-MAC fixes (track-state capture) and
// duplicate reports mixed in.
func setWorkload() []fusion.Bearing {
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	var bs []fusion.Bearing
	targets := []geom.Point{{X: 12, Y: 8}, {X: 5, Y: 4}, {X: 20, Y: 11}}
	for seq := uint64(1); seq <= 5; seq++ {
		for m := 0; m < 16; m++ {
			mac := macFromU48(uint64(m) << 44) // spread across partitions
			target := targets[(int(seq)+m)%len(targets)]
			bs = append(bs,
				fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap1, target)},
				fusion.Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap2, target)},
			)
			if m%5 == 0 {
				bs = append(bs, fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: geom.BearingDeg(ap1, target)})
			}
		}
	}
	return bs
}

// TestSetIngestBatchMatchesSerial pins Set.IngestBatch's identity
// claim: any batch sizing yields exactly the serial path's decisions
// (same per-MAC decision sequence, same positions and verdicts), with
// the per-partition engines' counters agreeing too.
func TestSetIngestBatchMatchesSerial(t *testing.T) {
	bs := setWorkload()
	for _, parts := range []int{1, 4} {
		byMAC := func(decs []fusion.Decision) map[wifi.Addr][]fusion.Decision {
			m := make(map[wifi.Addr][]fusion.Decision)
			for _, d := range decs {
				m[d.MAC] = append(m[d.MAC], d)
			}
			return m
		}

		var serial []fusion.Decision
		ss := testSetFixed(t, parts, func(d fusion.Decision, _ fusion.TrackState) { serial = append(serial, d) })
		for _, b := range bs {
			ss.Ingest(b)
		}
		serialStats := ss.Stats()

		for _, size := range []int{1, 3, 64, len(bs)} {
			var got []fusion.Decision
			sb := testSetFixed(t, parts, nil)
			for start := 0; start < len(bs); start += size {
				end := min(start+size, len(bs))
				sb.IngestBatch(bs[start:end], func(i int, d fusion.Decision, ts fusion.TrackState, tracked bool) {
					if !tracked || ts.Fixes == 0 {
						t.Errorf("parts=%d size=%d: decision for %v carried no track state", parts, size, d.MAC)
					}
					got = append(got, d)
				})
			}
			if sb.Stats() != serialStats {
				t.Errorf("parts=%d size=%d: stats diverged: %+v vs %+v", parts, size, sb.Stats(), serialStats)
			}
			if !reflect.DeepEqual(byMAC(got), byMAC(serial)) {
				t.Errorf("parts=%d size=%d: per-MAC decision streams diverged (%d vs %d decisions)",
					parts, size, len(got), len(serial))
			}
		}
	}
}

// TestSetIngestBatchNilEmit pins the nil-emit fallback: decisions go
// to each engine's configured Emit.
func TestSetIngestBatchNilEmit(t *testing.T) {
	bs := setWorkload()
	count := 0
	s := testSetFixed(t, 4, func(fusion.Decision, fusion.TrackState) { count++ })
	s.IngestBatch(bs, nil)
	if count == 0 {
		t.Fatal("nil emit: no decisions reached the configured Emit")
	}
}

// BenchmarkPartitionIngestBatch is BenchmarkPartitionIngest's batched
// counterpart: the same two-bearings-fuse workload submitted through
// Set.IngestBatch in 64-report batches (the TypeReportBatch frame
// path). The acceptance bar is beating per-report ingest at parts=4
// and parts=16.
func BenchmarkPartitionIngestBatch(b *testing.B) {
	ap1, ap2 := geom.Point{X: 0, Y: 0}, geom.Point{X: 24, Y: 0}
	target := geom.Point{X: 12, Y: 8}
	deg1, deg2 := geom.BearingDeg(ap1, target), geom.BearingDeg(ap2, target)
	const batch = 64 // 32 transmissions, two bearings each
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			s := benchSet(b, parts)
			// See BenchmarkPartitionIngest: collect the previous
			// sub-bench's dead clients so GC debt does not leak across
			// sub-benchmarks.
			runtime.GC()
			bs := make([]fusion.Bearing, 0, batch)
			var seq uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				mac := macFromU48(seq << 29)
				bs = append(bs,
					fusion.Bearing{AP: "ap1", APPos: ap1, MAC: mac, Seq: seq, Deg: deg1},
					fusion.Bearing{AP: "ap2", APPos: ap2, MAC: mac, Seq: seq, Deg: deg2},
				)
				if len(bs) == batch {
					s.IngestBatch(bs, nil)
					bs = bs[:0]
				}
			}
		})
	}
}
