package radio

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"secureangle/internal/antenna"
	"secureangle/internal/dsp"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/rng"
)

// testScene builds a small office-like scene with enough reflectors for
// real multipath (testbed is not importable here: it imports radio).
func testScene() *env.Environment {
	walls := []env.Wall{
		{Seg: geom.Segment{A: geom.Point{X: -2, Y: -2}, B: geom.Point{X: 12, Y: -2}}, Mat: env.Concrete, Name: "south"},
		{Seg: geom.Segment{A: geom.Point{X: 12, Y: -2}, B: geom.Point{X: 12, Y: 8}}, Mat: env.Concrete, Name: "east"},
		{Seg: geom.Segment{A: geom.Point{X: 12, Y: 8}, B: geom.Point{X: -2, Y: 8}}, Mat: env.Drywall, Name: "north"},
		{Seg: geom.Segment{A: geom.Point{X: -2, Y: 8}, B: geom.Point{X: -2, Y: -2}}, Mat: env.Glass, Name: "west"},
	}
	return env.New(walls, nil)
}

func testArray() *antenna.Array {
	return antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
}

// referenceReceive is the time-domain channel: per path, a
// frequency-domain fractional delay of the whole baseband, then a
// per-antenna steering fan-out — the behaviour the frequency-domain
// Receive must reproduce. The delay runs at the same pow2 transform
// length Receive uses (zero-pad, delay, truncate), so both sides realise
// the identical circular convolution — which, given the transmit
// buffer's lead/tail padding, is the linear (physical) convolution up to
// the sinc tails the padding absorbs.
func referenceReceive(f *FrontEnd, paths []env.Path, baseband []complex128) [][]complex128 {
	n := f.Array.N()
	ns := len(baseband)
	m := dsp.NextPow2(ns)
	padded := make([]complex128, m)
	copy(padded, baseband)
	out := make([][]complex128, n)
	for a := 0; a < n; a++ {
		out[a] = make([]complex128, ns)
	}
	for _, p := range paths {
		delayed := dsp.FractionalDelay(padded, p.Delay, f.SampleRate)
		dsp.Scale(delayed, p.Gain)
		steer := f.Array.Steering(p.BearingDeg)
		for a := 0; a < n; a++ {
			s := steer[a]
			dst := out[a]
			for i := range dst {
				dst[i] += delayed[i] * s
			}
		}
	}
	return out
}

// TestReceiveMatchesTimeDomainReference checks the frequency-domain
// synthesis against the per-path time-domain sum on a real multipath
// trace, with impairments and noise switched off so the channels compare
// sample for sample.
func TestReceiveMatchesTimeDomainReference(t *testing.T) {
	e := testScene()
	arr := testArray()
	apPos := geom.Point{X: 0, Y: 0}
	txPos := geom.Point{X: 7, Y: 4}
	fe := NewFrontEnd(arr, apPos, rng.New(3),
		WithPhaseOffsets(make([]float64, arr.N())),
		WithSNR(300), // noise variance ~1e-30: draws still occur, adds nothing visible
	)

	baseband := make([]complex128, 64+700+64) // 64 zeros either side
	src := rng.New(4)
	for i := range baseband[64 : 64+700] {
		baseband[64+i] = src.ComplexGaussian(1)
	}

	paths := e.Trace(txPos, fe.Pos)
	if len(paths) < 2 {
		t.Fatalf("trace found %d paths, want multipath", len(paths))
	}
	want := referenceReceive(fe, paths, baseband)

	got, err := fe.Receive(e, txPos, baseband)
	if err != nil {
		t.Fatal(err)
	}

	var ref float64
	for _, s := range want {
		ref = math.Max(ref, maxAbs(s))
	}
	for a := range want {
		for i := range want[a] {
			if d := cmplx.Abs(got[a][i] - want[a][i]); d > 1e-9*ref {
				t.Fatalf("antenna %d sample %d: |diff| = %g (ref %g)", a, i, d, ref)
			}
		}
	}
}

func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		m = math.Max(m, cmplx.Abs(v))
	}
	return m
}

// TestChannelResponseCache checks that repeated receives from one
// position reuse the cached response and that advancing the environment's
// drift epoch invalidates it.
func TestChannelResponseCache(t *testing.T) {
	e := testScene()
	e.EnableDrift(rng.New(8), 60, 0.3, 1.0)
	fe := NewFrontEnd(testArray(), geom.Point{}, rng.New(3), WithNoiseFloor(4e-9))
	pos := geom.Point{X: 7, Y: 4}

	resp1, err := fe.channelResponse(e, pos, 512)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := fe.channelResponse(e, pos, 512)
	if err != nil {
		t.Fatal(err)
	}
	if resp1 != resp2 {
		t.Fatal("same-epoch response was rebuilt instead of cached")
	}

	e.Advance(120)
	resp3, err := fe.channelResponse(e, pos, 512)
	if err != nil {
		t.Fatal(err)
	}
	if resp3 == resp1 {
		t.Fatal("stale response served after drift advanced")
	}
}

// TestPrepareReceiveConcurrentUse synthesises prepared receives on many
// goroutines (run with -race) and checks stream shapes.
func TestPrepareReceiveConcurrentUse(t *testing.T) {
	e := testScene()
	arr := testArray()
	fe := NewFrontEnd(arr, geom.Point{}, rng.New(3), WithNoiseFloor(4e-9))
	pos := geom.Point{X: 5, Y: 3}
	baseband := make([]complex128, 600)
	src := rng.New(4)
	for i := range baseband {
		baseband[i] = src.ComplexGaussian(1)
	}

	const m = 8
	preps := make([]PreparedReceive, m)
	for i := range preps {
		p, err := fe.PrepareReceive(e, pos, len(baseband))
		if err != nil {
			t.Fatal(err)
		}
		preps[i] = p
	}
	done := make(chan error, m)
	for i := range preps {
		go func(p *PreparedReceive) {
			streams, err := fe.ReceivePreparedArena(p, baseband, nil)
			if err == nil && (len(streams) != arr.N() || len(streams[0]) != len(baseband)) {
				err = errShape
			}
			done <- err
		}(&preps[i])
	}
	for i := 0; i < m; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	if _, err := fe.ReceivePreparedArena(&preps[0], baseband[:10], nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := fe.ReceivePreparedArena(&preps[0], baseband, nil); err == nil {
		t.Fatal("a consumed PreparedReceive was received again")
	}
}

var errShape = errors.New("radio test: unexpected stream shape")

// TestCleanCacheAdmission checks that a clean capture enters the cache
// only on its key's second sighting (a stream of unique frames copies
// nothing in), and that serving it from the cache is bit-identical to
// synthesising it afresh.
func TestCleanCacheAdmission(t *testing.T) {
	e := testScene()
	pos := geom.Point{X: 7, Y: 4}
	frame := func(seed int64) []complex128 {
		src := rng.New(seed)
		x := make([]complex128, 400)
		for i := range x {
			x[i] = src.ComplexGaussian(1)
		}
		return x
	}
	cached := NewFrontEnd(testArray(), geom.Point{}, rng.New(3), WithNoiseFloor(4e-9))
	fresh := NewFrontEnd(testArray(), geom.Point{}, rng.New(3), WithNoiseFloor(4e-9))
	receive := func(x []complex128) {
		t.Helper()
		got, err := cached.Receive(e, pos, x)
		if err != nil {
			t.Fatal(err)
		}
		fresh.cleanCache, fresh.cleanSeen = nil, [cleanSeenRing]cleanKey{}
		want, err := fresh.Receive(e, pos, x)
		if err != nil {
			t.Fatal(err)
		}
		for a := range want {
			for i := range want[a] {
				if got[a][i] != want[a][i] {
					t.Fatalf("antenna %d sample %d: cached path %v, fresh synthesis %v", a, i, got[a][i], want[a][i])
				}
			}
		}
	}
	for seed := int64(10); seed < 20; seed++ {
		receive(frame(seed))
	}
	if n := len(cached.cleanCache); n != 0 {
		t.Fatalf("%d unique frames admitted to the clean cache, want 0", n)
	}
	x := frame(10) // second sighting: admitted
	receive(x)
	if n := len(cached.cleanCache); n != 1 {
		t.Fatalf("clean cache holds %d entries after a second sighting, want 1", n)
	}
	var entry *cleanEntry
	for _, ce := range cached.cleanCache {
		entry = ce
	}
	receive(x) // third: served from the cache, not stored again
	for _, ce := range cached.cleanCache {
		if ce != entry {
			t.Fatal("third sighting re-synthesised instead of replaying the cached capture")
		}
	}
}
