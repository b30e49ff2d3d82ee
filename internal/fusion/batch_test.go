package fusion

import (
	"reflect"
	"testing"
	"time"

	"secureangle/internal/geom"
)

// batchWorkload builds a deterministic bearing sequence that exercises
// the batch path's tricky cases: many MACs spread across shards,
// repeated same-MAC fixes inside one batch (the track-state capture
// hazard), duplicate sequence numbers, and lone reports that never
// fuse.
func batchWorkload() []Bearing {
	var bs []Bearing
	targets := []geom.Point{{X: 9, Y: 6}, {X: 4, Y: 11}, {X: 17, Y: 8}, {X: 12, Y: 3}}
	for seq := uint64(1); seq <= 6; seq++ {
		for m := 0; m < 7; m++ {
			target := targets[(int(seq)+m)%len(targets)]
			pair := bearingsAt(mac(m*101), seq, target)
			bs = append(bs, pair...)
			if m%3 == 0 {
				bs = append(bs, pair[0]) // duplicate AP report: dropped
			}
		}
		// A lone report that never reaches MinAPs.
		bs = append(bs, bearingsAt(mac(9999), seq, targets[0])[:1]...)
	}
	return bs
}

// batchOutcome is one emitted decision with the track state observed
// alongside it.
type batchOutcome struct {
	d       Decision
	ts      TrackState
	tracked bool
}

// TestIngestBatchMatchesSerial pins the batch path's identity claim:
// for any batch sizing, IngestBatch produces exactly the decisions of
// the same bearings ingested serially, in the same order, and the
// track state it hands each emit matches what a serial consumer would
// read with Track right after that decision.
func TestIngestBatchMatchesSerial(t *testing.T) {
	bs := batchWorkload()

	serial := func() []batchOutcome {
		var out []batchOutcome
		var e *Engine
		cfg := Config{
			Fence:        testFence(),
			APCount:      func() int { return 2 },
			TickInterval: time.Hour,
			Clock:        func() time.Time { return time.Unix(1000, 0) },
			Emit: func(d Decision, _ TrackState) {
				ts, ok := e.Track(d.MAC)
				out = append(out, batchOutcome{d: d, ts: ts, tracked: ok})
			},
		}
		e = MustNew(cfg)
		defer e.Close()
		for _, b := range bs {
			e.Ingest(b)
		}
		return out
	}()

	for _, size := range []int{1, 2, 3, 7, 64, len(bs)} {
		var out []batchOutcome
		e := MustNew(Config{
			Fence:        testFence(),
			APCount:      func() int { return 2 },
			TickInterval: time.Hour,
			Clock:        func() time.Time { return time.Unix(1000, 0) },
		})
		for start := 0; start < len(bs); start += size {
			end := min(start+size, len(bs))
			e.IngestBatch(bs[start:end], func(i int, d Decision, ts TrackState, tracked bool) {
				if i < 0 || i >= end-start {
					t.Errorf("batch size %d: emit index %d out of range", size, i)
				}
				out = append(out, batchOutcome{d: d, ts: ts, tracked: tracked})
			})
		}
		e.Close()
		if len(out) != len(serial) {
			t.Fatalf("batch size %d: %d decisions, serial produced %d", size, len(out), len(serial))
		}
		for i := range out {
			if !reflect.DeepEqual(out[i], serial[i]) {
				t.Errorf("batch size %d: outcome %d diverged:\n batch  %+v\n serial %+v", size, i, out[i], serial[i])
			}
		}
	}
}

// TestIngestBatchNilEmitUsesConfigured pins the fallback: with a nil
// emit the batch's decisions flow to cfg.Emit like serial ingest.
func TestIngestBatchNilEmitUsesConfigured(t *testing.T) {
	bs := batchWorkload()
	cap := &capture{}
	clk := newFakeClock()
	e := newTestEngine(t, Config{APCount: func() int { return 2 }}, clk, cap)
	e.IngestBatch(bs, nil)
	if len(cap.decisions()) == 0 {
		t.Fatal("nil emit: no decisions reached cfg.Emit")
	}
}

// TestFusionEmitCarriesDecisionTrack pins the decision-time track
// contract on every delivery path: the track state handed over with a
// decision is the one that decision left, so its LastSeq is the
// decision's Seq — also when later same-MAC bearings in one batch, or a
// second forced fusion in the same sweep, advance the track again
// before delivery.
func TestFusionEmitCarriesDecisionTrack(t *testing.T) {
	check := func(path string, d Decision, ts TrackState) {
		t.Helper()
		if ts.MAC != d.MAC || ts.LastSeq != d.Seq || ts.Decision != d.Decision || ts.Fixes == 0 {
			t.Errorf("%s: decision %v seq %d carried track %+v", path, d.MAC, d.Seq, ts)
		}
	}
	bs := batchWorkload()
	cfg := func(emit func(Decision, TrackState)) Config {
		return Config{
			Fence:        testFence(),
			APCount:      func() int { return 2 },
			TickInterval: time.Hour,
			Clock:        func() time.Time { return time.Unix(1000, 0) },
			Emit:         emit,
		}
	}

	n := 0
	e := MustNew(cfg(func(d Decision, ts TrackState) { n++; check("Ingest", d, ts) }))
	for _, b := range bs {
		e.Ingest(b)
	}
	e.Close()
	if n == 0 {
		t.Fatal("Ingest: no decisions")
	}

	// Batches below and at least twice the shard count take the two
	// IngestBatch paths; each runs with its own emit and with cfg.Emit.
	for _, size := range []int{3, 2 * DefaultShards, len(bs)} {
		for _, own := range []bool{true, false} {
			got := 0
			e := MustNew(cfg(func(d Decision, ts TrackState) { got++; check("IngestBatch/cfg.Emit", d, ts) }))
			var emit BatchEmit
			if own {
				emit = func(_ int, d Decision, ts TrackState, tracked bool) {
					got++
					if !tracked {
						t.Errorf("IngestBatch size %d: decision %v seq %d untracked", size, d.MAC, d.Seq)
					}
					check("IngestBatch", d, ts)
				}
			}
			for start := 0; start < len(bs); start += size {
				e.IngestBatch(bs[start:min(start+size, len(bs))], emit)
			}
			e.Close()
			if got != n {
				t.Errorf("IngestBatch size %d (own emit %v): %d decisions, serial made %d", size, own, got, n)
			}
		}
	}

	// A sweep that force-fuses two sequence numbers of one MAC: each
	// decision carries the track it left, not the post-sweep track.
	clk := newFakeClock()
	var swept []Decision
	se := newTestEngine(t, Config{
		MinDiversityDeg: 89.9, // hold every pair for the deadline
		Emit:            func(d Decision, ts TrackState) { swept = append(swept, d); check("Sweep", d, ts) },
	}, clk, nil)
	for seq := uint64(1); seq <= 2; seq++ {
		for _, b := range bearingsAt(mac(7), seq, geom.Point{X: 9, Y: 6}) {
			se.Ingest(b)
		}
	}
	clk.Advance(2 * DefaultDecisionTimeout)
	se.Sweep(clk.Now())
	if len(swept) != 2 || !swept[0].Forced || !swept[1].Forced {
		t.Fatalf("sweep emitted %+v, want two forced decisions", swept)
	}
}
