package core

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

func newBatchAP(t testing.TB, workers int) *AP {
	t.Helper()
	e, _ := testbed.Building()
	fe := testbed.NewAPFrontEnd(testbed.CircularArray(), testbed.AP1, rng.New(11))
	cfg := DefaultConfig()
	cfg.Workers = workers
	return NewAP("batch-ap", fe, e, cfg)
}

func uplinkBaseband(t testing.TB, id int, seq uint16) []complex128 {
	t.Helper()
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(id, seq, []byte("uplink")), ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

func cloneStreams(s [][]complex128) [][]complex128 {
	out := make([][]complex128, len(s))
	for i, st := range s {
		out[i] = append([]complex128(nil), st...)
	}
	return out
}

// TestProcessStreamsBatchMatchesSerial captures packets from several
// clients and asserts the pooled batch path reproduces serial
// ProcessStreams on the same captures exactly.
func TestProcessStreamsBatchMatchesSerial(t *testing.T) {
	ap := newBatchAP(t, 4)
	var captures [][][]complex128
	for _, id := range []int{1, 3, 5, 7, 9, 14} {
		c, err := testbed.ClientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := ap.Receive(c.Pos, uplinkBaseband(t, id, 1))
		if err != nil {
			t.Fatal(err)
		}
		captures = append(captures, streams)
	}

	serialIn := make([][][]complex128, len(captures))
	batchIn := make([][][]complex128, len(captures))
	for i, s := range captures {
		serialIn[i] = cloneStreams(s)
		batchIn[i] = cloneStreams(s)
	}

	var serial []*Report
	for _, s := range serialIn {
		rep, err := ap.ProcessStreams(s)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, rep)
	}
	batch := ap.ProcessStreamsBatch(batchIn)
	if len(batch) != len(serial) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(serial))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		want := serial[i]
		got := br.Report
		if got.BearingDeg != want.BearingDeg || got.Sources != want.Sources || got.SNRdB != want.SNRdB {
			t.Fatalf("item %d: batch (%v, %d, %v) != serial (%v, %d, %v)",
				i, got.BearingDeg, got.Sources, got.SNRdB, want.BearingDeg, want.Sources, want.SNRdB)
		}
		d, err := signature.Distance(got.Sig, want.Sig)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("item %d: signature distance %v", i, d)
		}
	}
}

// TestObserveBatchReports asserts the batched receive path produces sound
// reports for every visible client and isolates per-item failures.
func TestObserveBatchReports(t *testing.T) {
	ap := newBatchAP(t, 3)
	var items []BatchItem
	var truths []float64
	for _, id := range []int{1, 5, 8, 9} {
		c, err := testbed.ClientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{TX: c.Pos, Baseband: uplinkBaseband(t, id, 2)})
		truths = append(truths, testbed.GroundTruth(testbed.AP1, c.Pos))
	}
	// A transmitter with an empty baseband must fail alone.
	items = append(items, BatchItem{TX: items[0].TX})

	res := ap.ObserveBatch(items)
	if len(res) != len(items) {
		t.Fatalf("got %d results for %d items", len(res), len(items))
	}
	for i := 0; i < len(truths); i++ {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		if res[i].Report.Sig == nil || len(res[i].Report.Spectrum.P) == 0 {
			t.Fatalf("item %d: incomplete report", i)
		}
	}
	if res[len(items)-1].Err == nil {
		t.Fatal("empty-baseband item did not fail")
	}
}

// TestProcessFrameBatchRecordsReceiveStage checks that the batch path
// times its synthesis: the stage="receive" histogram gains one sample
// per synthesised item.
func TestProcessFrameBatchRecordsReceiveStage(t *testing.T) {
	ap := newBatchAP(t, 2)
	var items []FrameBatchItem
	for _, id := range []int{2, 6, 11} {
		c, err := testbed.ClientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, FrameBatchItem{TX: c.Pos, Frame: testbed.UplinkFrame(id, 1, []byte("uplink")), Mod: ofdm.QPSK})
	}
	before := mReceiveSeconds.Count()
	for i, r := range ap.ProcessFrameBatch(items) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if got := mReceiveSeconds.Count() - before; got != uint64(len(items)) {
		t.Fatalf("receive histogram rose by %d over a batch of %d synthesised items", got, len(items))
	}
}

// TestObserveBatchConcurrentCallers fires batches and frame observations
// from many goroutines at one AP — the many-client ingest scenario — and
// relies on -race to catch synchronisation regressions in the front end,
// environment, and registry layers.
func TestObserveBatchConcurrentCallers(t *testing.T) {
	ap := newBatchAP(t, 2)
	clients := testbed.Clients()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var items []BatchItem
			for i := 0; i < 4; i++ {
				c := clients[(g*4+i)%len(clients)]
				items = append(items, BatchItem{TX: c.Pos, Baseband: uplinkBaseband(t, c.ID, uint16(g))})
			}
			for _, r := range ap.ObserveBatch(items) {
				if r.Err != nil && !errors.Is(r.Err, ErrNotDetected) {
					t.Errorf("goroutine %d: %v", g, r.Err)
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g%len(clients)]
			frame := testbed.UplinkFrame(c.ID, uint16(g), []byte("uplink"))
			if _, err := ap.ProcessFrame(c.Pos, frame, ofdm.QPSK); err != nil && !errors.Is(err, ErrNotDetected) {
				t.Errorf("frame goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestProcessFrameBatchRegistrySemantics checks that a batch enrolls each
// new MAC exactly once and spoof-checks the rest, in item order.
func TestProcessFrameBatchRegistrySemantics(t *testing.T) {
	ap := newBatchAP(t, 4)
	c, err := testbed.ClientByID(5)
	if err != nil {
		t.Fatal(err)
	}
	var items []FrameBatchItem
	for i := 0; i < 4; i++ {
		items = append(items, FrameBatchItem{
			TX:    c.Pos,
			Frame: testbed.UplinkFrame(c.ID, uint16(i), []byte("uplink")),
			Mod:   ofdm.QPSK,
		})
	}
	res := ap.ProcessFrameBatch(items)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if want := i == 0; r.Report.Enrolled != want {
			t.Fatalf("item %d: Enrolled = %v, want %v", i, r.Report.Enrolled, want)
		}
		if r.Report.Decision != signature.Accept {
			t.Fatalf("item %d: decision %v", i, r.Report.Decision)
		}
	}
	if !ap.Known(testbed.ClientMAC(c.ID)) {
		t.Fatal("client not enrolled after batch")
	}
}

// TestProcessFrameBatchRecordsSpoofCheckSpans checks that the batch path
// traces its spoof checks like ProcessFrame does: one StageSpoofCheck
// span per checked frame, on that frame's trace.
func TestProcessFrameBatchRecordsSpoofCheckSpans(t *testing.T) {
	ap := newBatchAP(t, 2)
	var items []FrameBatchItem
	for i, id := range []int{3, 3, 7} {
		c, err := testbed.ClientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, FrameBatchItem{TX: c.Pos, Frame: testbed.UplinkFrame(c.ID, uint16(i), []byte("uplink")), Mod: ofdm.QPSK})
	}
	for i, r := range ap.ProcessFrameBatch(items) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		id := r.Report.Trace
		trace.Default().Retain(id)
		spans := 0
		for _, v := range trace.Default().Snapshot(0) {
			if v.Trace != id {
				continue
			}
			for _, sp := range v.Spans {
				if sp.Stage == trace.StageSpoofCheck {
					spans++
					if sp.MAC != items[i].Frame.Addr2 || sp.AP != ap.Name {
						t.Errorf("item %d: span %+v", i, sp)
					}
				}
			}
		}
		if spans != 1 {
			t.Errorf("item %d: %d spoof-check spans, want 1", i, spans)
		}
	}
}

// --- Sharded registry equivalence with the old single-mutex registry ---

// singleMutexRegistry replicates the pre-sharding registry semantics: one
// map, one lock, the reference for the equivalence test.
type singleMutexRegistry struct {
	mu sync.Mutex
	m  map[wifi.Addr]*signature.Tracker
}

func (r *singleMutexRegistry) observe(mac wifi.Addr, sig *signature.Signature, policy signature.MatchPolicy) (signature.Decision, float64, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr, known := r.m[mac]
	if !known {
		r.m[mac] = signature.NewTracker(sig, policy, trackerAlpha)
		return signature.Accept, 0, true, nil
	}
	dec, dist, err := tr.Observe(sig)
	return dec, dist, false, err
}

func (r *singleMutexRegistry) identify(obs *signature.Signature) ([]Identification, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Identification, 0, len(r.m))
	for mac, tr := range r.m {
		d, err := signature.Distance(tr.Stored(), obs)
		if err != nil {
			return nil, err
		}
		out = append(out, Identification{MAC: mac, Distance: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].MAC.String() < out[j].MAC.String()
	})
	return out, nil
}

// gridSignature builds a signature with controlled contents so the test
// does not have to run the pipeline.
func gridSignature(vals []float64) *signature.Signature {
	grid := make([]float64, len(vals))
	for i := range grid {
		grid[i] = float64(i)
	}
	return signature.FromPseudospectrum(&music.Pseudospectrum{AnglesDeg: grid, P: vals})
}

// TestShardedRegistryMatchesSingleMutex drives both registries through an
// identical enroll/observe/identify schedule and asserts identical
// decisions, distances, and rankings.
func TestShardedRegistryMatchesSingleMutex(t *testing.T) {
	sharded := newShardedRegistry()
	reference := &singleMutexRegistry{m: make(map[wifi.Addr]*signature.Tracker)}
	policy := signature.DefaultPolicy()
	src := rng.New(99)

	macs := make([]wifi.Addr, 12)
	for i := range macs {
		macs[i] = testbed.ClientMAC(i + 1)
	}
	randomSig := func() *signature.Signature {
		vals := make([]float64, 90)
		for i := range vals {
			vals[i] = src.Float64()
		}
		return gridSignature(vals)
	}

	for step := 0; step < 400; step++ {
		mac := macs[src.Intn(len(macs))]
		sig := randomSig()
		v1, enr1, err1 := sharded.observe(mac, sig, policy)
		d2, dist2, enr2, err2 := reference.observe(mac, sig, policy)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: error mismatch %v vs %v", step, err1, err2)
		}
		if v1.Decision != d2 || v1.Distance != dist2 || enr1 != enr2 {
			t.Fatalf("step %d: sharded (%v, %v, %v) != reference (%v, %v, %v)",
				step, v1.Decision, v1.Distance, enr1, d2, dist2, enr2)
		}
		if v1.Threshold != policy.MaxDistance {
			t.Fatalf("step %d: verdict threshold %v != policy %v", step, v1.Threshold, policy.MaxDistance)
		}
		if step%50 == 0 {
			probe := randomSig()
			got, err := sharded.rank(probe)
			if err != nil {
				t.Fatal(err)
			}
			want, err := reference.identify(probe)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: identify lengths %d vs %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i].MAC != want[i].MAC || got[i].Distance != want[i].Distance {
					t.Fatalf("step %d rank %d: (%v, %v) != (%v, %v)",
						step, i, got[i].MAC, got[i].Distance, want[i].MAC, want[i].Distance)
				}
			}
		}
	}

	// Spot-check the lookup surface too.
	for _, mac := range macs {
		if sharded.known(mac) != (reference.m[mac] != nil) {
			t.Fatalf("known(%v) disagrees", mac)
		}
		s1, ok1 := sharded.stored(mac)
		tr, ok2 := reference.m[mac]
		if ok1 != ok2 {
			t.Fatalf("stored(%v) presence disagrees", mac)
		}
		if ok1 {
			d, err := signature.Distance(s1, tr.Stored())
			if err != nil {
				t.Fatal(err)
			}
			if d != 0 {
				t.Fatalf("stored(%v) distance %v", mac, d)
			}
		}
	}
}

// TestShardedRegistryConcurrent hammers the registry from many goroutines
// under -race and checks per-MAC enrollment happened exactly once.
func TestShardedRegistryConcurrent(t *testing.T) {
	reg := newShardedRegistry()
	policy := signature.DefaultPolicy()
	base := rng.New(5)
	sigs := make([]*signature.Signature, 64)
	for i := range sigs {
		vals := make([]float64, 90)
		for j := range vals {
			vals[j] = base.Float64()
		}
		sigs[i] = gridSignature(vals)
	}

	var wg sync.WaitGroup
	var enrolls [16]int32
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mac := testbed.ClientMAC(i % 16)
				_, enrolled, err := reg.observe(mac, sigs[(g*31+i)%len(sigs)], policy)
				if err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				if enrolled {
					mu.Lock()
					enrolls[i%16]++
					mu.Unlock()
				}
				if i%50 == 49 {
					// Identify reads trackers in place while other
					// goroutines update them.
					if _, err := reg.rank(sigs[g]); err != nil {
						t.Errorf("rank: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for mac, n := range enrolls {
		if n != 1 {
			t.Fatalf("MAC %d enrolled %d times", mac, n)
		}
	}
	if _, err := reg.rank(sigs[0]); err != nil {
		t.Fatal(err)
	}
}
