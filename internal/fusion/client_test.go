package fusion

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"secureangle/internal/geom"
)

// TestFusionPendingEvictionDeterministic: when a client's in-flight
// transmissions overflow MaxPendingPerClient, the earliest-inserted one
// is evicted, even when a whole batch shares one clock reading. Seqs
// 1-5 from one AP in one batch against a cap of 4 must always leave
// 2-5 in flight, so a journal replay evicts the seq the live run did.
func TestFusionPendingEvictionDeterministic(t *testing.T) {
	ap1, ap2 := geom.Point{X: 4, Y: 2}, geom.Point{X: 20, Y: 3}
	target := geom.Point{X: 9, Y: 6}
	m := mac(7)
	first := make([]Bearing, 5)
	for i := range first {
		first[i] = Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: uint64(i + 1), Deg: geom.BearingDeg(ap1, target)}
	}
	for run := 0; run < 200; run++ {
		var fused []uint64
		e := MustNew(Config{
			Fence:               testFence(),
			APCount:             func() int { return 2 },
			MaxPendingPerClient: 4,
			TickInterval:        time.Hour,
			Clock:               func() time.Time { return time.Unix(1000, 0) },
			Emit:                func(d Decision, _ TrackState) { fused = append(fused, d.Seq) },
		})
		e.IngestBatch(first, nil)
		// The second AP's bearings fuse exactly the seqs still in flight
		// (the all-APs shortcut decides at once).
		for seq := uint64(2); seq <= 5; seq++ {
			e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: seq, Deg: geom.BearingDeg(ap2, target)})
		}
		st, pending := e.Stats(), e.PendingCount()
		e.Close()
		if !reflect.DeepEqual(fused, []uint64{2, 3, 4, 5}) || st.PendingEvicted != 1 || pending != 0 {
			t.Fatalf("run %d: fused %v, PendingEvicted %d, PendingCount %d; want [2 3 4 5], 1, 0",
				run, fused, st.PendingEvicted, pending)
		}
	}
}

// randomBearing draws one of three APs' bearings toward a random
// in-building position, from one of macs MACs, for a seq below seqs.
func randomBearing(rng *rand.Rand, macs, seqs int) Bearing {
	aps := [...]geom.Point{{X: 4, Y: 2}, {X: 20, Y: 3}, {X: 12, Y: 15}}
	m := mac(rng.Intn(macs))
	a := rng.Intn(len(aps))
	target := geom.Point{X: 1 + 22*rng.Float64(), Y: 1 + 14*rng.Float64()}
	return Bearing{AP: fmt.Sprintf("ap%d", a+1), APPos: aps[a], MAC: m, Seq: uint64(rng.Intn(seqs)),
		Deg: geom.BearingDeg(aps[a], target)}
}

// walkPending counts in-flight entries by walking every client's list,
// checking each list's kept length and back-links on the way.
func walkPending(t *testing.T, e *Engine) int {
	t.Helper()
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		for _, cl := range s.clients {
			k := 0
			var prev *pendingTx
			for p := cl.pending.head; p != nil; p = p.clNext {
				if p.cl != cl || p.clPrev != prev {
					t.Fatalf("client %v: entry seq %d mislinked", cl.mac, p.seq)
				}
				prev = p
				k++
			}
			if k != int(cl.pending.n) || cl.pending.tail != prev {
				t.Fatalf("client %v: walked %d entries, list says %d", cl.mac, k, cl.pending.n)
			}
			n += k
		}
		s.mu.Unlock()
	}
	return n
}

// TestFusionPendingCountMatchesWalk: after every step of a seeded mix
// of single and batched ingest, sweeps, client evictions and pending
// evictions, the kept per-shard count PendingCount sums equals a walk
// over every client's in-flight list.
func TestFusionPendingCountMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		clk := newFakeClock()
		e := newTestEngine(t, Config{
			Shards:              3,
			MaxClients:          24,
			MaxPendingPerClient: 4,
			DecisionTimeout:     300 * time.Millisecond,
			PendingTTL:          time.Second,
			APCount:             func() int { return 3 },
		}, clk, nil)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				e.Ingest(randomBearing(rng, 40, 12))
			case op < 8:
				bs := make([]Bearing, 1+rng.Intn(12))
				for i := range bs {
					bs[i] = randomBearing(rng, 40, 12)
				}
				e.IngestBatch(bs, nil)
			default:
				clk.Advance(time.Duration(rng.Intn(400)) * time.Millisecond)
				e.Sweep(clk.Now())
			}
			if got, want := e.PendingCount(), walkPending(t, e); got != want {
				t.Fatalf("seed %d step %d: PendingCount %d, walk %d", seed, step, got, want)
			}
		}
		st := e.Stats()
		if st.ClientsEvicted == 0 || st.PendingEvicted == 0 || st.PendingExpired == 0 || st.Decisions == 0 {
			t.Fatalf("seed %d: workload missed a path: %+v", seed, st)
		}
	}
}

// TestFusionSaveBytesUnchanged pins Save's bytes after a seeded mix of
// LRU-evicted clients, pending evictions, expiries and forced fixes
// (one bearing per clock step, so no two pendings share a created
// time): how the engine stores per-client state must not change what
// it saves. The digest was taken from the map-backed pending store the
// intrusive per-client list replaced.
func TestFusionSaveBytesUnchanged(t *testing.T) {
	const want = "ca26063ed88ab5fd36516af548756db9035be29488fd07360297380a42130f6e"
	clk := newFakeClock()
	e := newTestEngine(t, Config{
		Shards:              4,
		MaxClients:          48,
		MaxPendingPerClient: 3,
		PendingTTL:          2 * time.Second,
		APCount:             func() int { return 3 },
	}, clk, nil)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 4000; i++ {
		clk.Advance(time.Duration(1+rng.Intn(20)) * time.Millisecond)
		e.Ingest(randomBearing(rng, 80, 40))
		if i%97 == 0 {
			e.Sweep(clk.Now())
		}
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Save digest %s (%d bytes), want %s", got, buf.Len(), want)
	}
}

// liveHeap returns the heap still reachable after two collections: the
// second frees what the first only moved into sync.Pool victim caches.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFusionRetainedBytesPerClient bounds the heap one tracked client
// holds: 20,000 fresh MACs, each with one lone bearing in flight. It
// measures ~766 B per client on amd64: the client (192 B), its pending
// entry (144 B) with that entry's bearing map (~400 B), and its slot in
// the shard's client map. A client that is again several objects (a
// pending map of its own, a separately allocated filter) reads ~942 B.
func TestFusionRetainedBytesPerClient(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector adds shadow state to every allocation")
	}
	const (
		n     = 20000
		bound = 800 // bytes per client: the measured 766, rounded up
	)
	ap := geom.Point{X: 4, Y: 2}
	before := liveHeap()
	e := MustNew(Config{
		Fence:        testFence(),
		TickInterval: time.Hour,
		Clock:        func() time.Time { return time.Unix(1000, 0) },
	})
	defer e.Close()
	for i := 0; i < n; i++ {
		e.Ingest(Bearing{AP: "ap1", APPos: ap, MAC: mac(i), Seq: 1, Deg: 30})
	}
	after := liveHeap()
	if got := e.ClientCount(); got != n {
		t.Fatalf("ClientCount = %d, want %d", got, n)
	}
	perClient := float64(int64(after)-int64(before)) / n
	t.Logf("retained %.0f B per client (bound %d)", perClient, bound)
	if perClient > bound {
		t.Errorf("retained %.0f B per client, want <= %d", perClient, bound)
	}
}
