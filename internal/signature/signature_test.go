package signature

import (
	"math"
	"testing"
	"testing/quick"

	"secureangle/internal/music"
)

// gauss builds a pseudospectrum with Gaussian peaks at the given bearings.
func gauss(grid []float64, centers []float64, widths []float64, heights []float64) *music.Pseudospectrum {
	p := make([]float64, len(grid))
	for i, a := range grid {
		for c := range centers {
			d := a - centers[c]
			p[i] += heights[c] * math.Exp(-d*d/(2*widths[c]*widths[c]))
		}
	}
	return &music.Pseudospectrum{AnglesDeg: grid, P: p}
}

func grid360() []float64 {
	g := make([]float64, 360)
	for i := range g {
		g[i] = float64(i)
	}
	return g
}

func TestFromPseudospectrumNormalises(t *testing.T) {
	s := FromPseudospectrum(gauss(grid360(), []float64{100}, []float64{5}, []float64{42}))
	var e float64
	for _, v := range s.P {
		e += v * v
	}
	if math.Abs(e-1) > 1e-9 {
		t.Errorf("energy = %v, want 1", e)
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	s := FromPseudospectrum(gauss(grid360(), []float64{100, 200}, []float64{5, 8}, []float64{1, 0.4}))
	sim, err := Similarity(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim-1) > 1e-12 {
		t.Errorf("self similarity = %v", sim)
	}
	d, _ := Distance(s, s)
	if math.Abs(d) > 1e-12 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDifferentLocationsAreDistant(t *testing.T) {
	a := FromPseudospectrum(gauss(grid360(), []float64{100, 160}, []float64{4, 6}, []float64{1, 0.3}))
	b := FromPseudospectrum(gauss(grid360(), []float64{250, 40}, []float64{4, 6}, []float64{1, 0.3}))
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.5 {
		t.Errorf("distance between disjoint signatures = %v, want large", d)
	}
}

func TestSmallDriftIsClose(t *testing.T) {
	a := FromPseudospectrum(gauss(grid360(), []float64{100, 160}, []float64{4, 6}, []float64{1, 0.3}))
	// Same direct path; reflection peak moved 3 degrees and reweighted.
	b := FromPseudospectrum(gauss(grid360(), []float64{100, 163}, []float64{4, 6}, []float64{1, 0.25}))
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d > DefaultPolicy().MaxDistance {
		t.Errorf("drifted signature distance = %v, above default threshold", d)
	}
}

func TestSimilaritySymmetricProperty(t *testing.T) {
	f := func(c1, c2 uint16) bool {
		g := grid360()
		a := FromPseudospectrum(gauss(g, []float64{float64(c1 % 360)}, []float64{5}, []float64{1}))
		b := FromPseudospectrum(gauss(g, []float64{float64(c2 % 360)}, []float64{5}, []float64{1}))
		s1, e1 := Similarity(a, b)
		s2, e2 := Similarity(b, a)
		if e1 != nil || e2 != nil {
			return false
		}
		return math.Abs(s1-s2) < 1e-12 && s1 >= -1e-12 && s1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGridMismatch(t *testing.T) {
	a := FromPseudospectrum(gauss(grid360(), []float64{100}, []float64{5}, []float64{1}))
	short := grid360()[:180]
	b := FromPseudospectrum(gauss(short, []float64{100}, []float64{5}, []float64{1}))
	if _, err := Similarity(a, b); err != ErrGridMismatch {
		t.Errorf("err = %v, want ErrGridMismatch", err)
	}
	// Same length, different grid values.
	shifted := make([]float64, 360)
	for i := range shifted {
		shifted[i] = float64(i) + 0.5
	}
	c := FromPseudospectrum(gauss(shifted, []float64{100}, []float64{5}, []float64{1}))
	if _, err := Similarity(a, c); err != ErrGridMismatch {
		t.Errorf("err = %v, want ErrGridMismatch", err)
	}
}

func TestPeakBearings(t *testing.T) {
	s := FromPseudospectrum(gauss(grid360(), []float64{100, 200, 300}, []float64{4, 4, 4}, []float64{1, 0.6, 0.3}))
	peaks := s.PeakBearings(10, 20)
	if len(peaks) != 3 {
		t.Fatalf("peaks = %v", peaks)
	}
	if peaks[0] != 100 || peaks[1] != 200 || peaks[2] != 300 {
		t.Errorf("peak order = %v", peaks)
	}
}

func TestTrackerAcceptsAndTracksDrift(t *testing.T) {
	g := grid360()
	initial := FromPseudospectrum(gauss(g, []float64{100, 160}, []float64{4, 6}, []float64{1, 0.3}))
	tr := NewTracker(initial, DefaultPolicy(), 0.3)

	// Slow drift of the reflection peak: 160 -> 170 in one-degree steps.
	for step := 1; step <= 10; step++ {
		obs := FromPseudospectrum(gauss(g, []float64{100, 160 + float64(step)}, []float64{4, 6}, []float64{1, 0.3}))
		dec, d, err := tr.Observe(obs)
		if err != nil {
			t.Fatal(err)
		}
		if dec != Accept {
			t.Fatalf("step %d flagged (distance %v): tracker failed to follow drift", step, d)
		}
	}
	// The stored signature has followed: it is now closer to 170 than the
	// original 160 profile.
	final := FromPseudospectrum(gauss(g, []float64{100, 170}, []float64{4, 6}, []float64{1, 0.3}))
	dNew, _ := Distance(tr.Stored(), final)
	dOld, _ := Distance(tr.Stored(), initial)
	if dNew >= dOld {
		t.Errorf("tracker did not follow drift: d(new)=%v d(old)=%v", dNew, dOld)
	}
}

func TestTrackerFlagsAttackerAndHoldsProfile(t *testing.T) {
	g := grid360()
	legit := FromPseudospectrum(gauss(g, []float64{100, 160}, []float64{4, 6}, []float64{1, 0.3}))
	attacker := FromPseudospectrum(gauss(g, []float64{260, 30}, []float64{4, 6}, []float64{1, 0.3}))
	tr := NewTracker(legit, DefaultPolicy(), 0.3)

	before := tr.Stored()
	for i := 0; i < 5; i++ {
		dec, _, err := tr.Observe(attacker)
		if err != nil {
			t.Fatal(err)
		}
		if dec != Flag {
			t.Fatal("attacker signature accepted")
		}
	}
	if tr.FlagRun() != 5 {
		t.Errorf("flag run = %d", tr.FlagRun())
	}
	// Stored profile must be unchanged: flagged packets must not be able
	// to walk the profile toward the attacker.
	after := tr.Stored()
	d, _ := Distance(before, after)
	if d > 1e-12 {
		t.Errorf("flagged observations moved the stored profile by %v", d)
	}
	// A legit packet resets the run.
	if dec, _, _ := tr.Observe(legit); dec != Accept {
		t.Error("legit packet flagged after attack")
	}
	if tr.FlagRun() != 0 {
		t.Error("flag run not reset")
	}
}

func TestTrackerAlphaClamp(t *testing.T) {
	g := grid360()
	s := FromPseudospectrum(gauss(g, []float64{100}, []float64{5}, []float64{1}))
	tr := NewTracker(s, DefaultPolicy(), -3)
	if tr.Alpha != 0.25 {
		t.Errorf("alpha = %v, want default 0.25", tr.Alpha)
	}
}

func TestDecisionString(t *testing.T) {
	if Accept.String() != "accept" || Flag.String() != "flag" {
		t.Error("decision strings")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := FromPseudospectrum(gauss(grid360(), []float64{100, 200}, []float64{5, 7}, []float64{1, 0.5}))
	b := s.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkGrid(got); err != nil {
		t.Fatal(err)
	}
	for i := range s.P {
		if s.P[i] != got.P[i] || s.AnglesDeg[i] != got.AnglesDeg[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Unmarshal(make([]byte, 8)); err == nil {
		t.Error("bad magic accepted")
	}
	s := FromPseudospectrum(gauss(grid360(), []float64{100}, []float64{5}, []float64{1}))
	b := s.Marshal()
	if _, err := Unmarshal(b[:len(b)-8]); err == nil {
		t.Error("truncated accepted")
	}
}

func TestZeroSignature(t *testing.T) {
	z := FromPseudospectrum(&music.Pseudospectrum{AnglesDeg: []float64{0, 1}, P: []float64{0, 0}})
	sim, err := Similarity(z, z)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 0 {
		t.Errorf("zero-signature similarity = %v", sim)
	}
}

// --- Scored verdicts (the defense engine's margin input) ---

func TestDefenseVerdictMargin(t *testing.T) {
	g := grid360()
	legit := FromPseudospectrum(gauss(g, []float64{100, 160}, []float64{4, 6}, []float64{1, 0.3}))
	attacker := FromPseudospectrum(gauss(g, []float64{260, 30}, []float64{4, 6}, []float64{1, 0.3}))
	tr := NewTracker(legit, DefaultPolicy(), 0.3)

	// Same location: accepted with positive margin.
	v, err := tr.ObserveVerdict(legit.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != Accept || v.Distance != 0 {
		t.Fatalf("self verdict = %+v", v)
	}
	if v.Threshold != DefaultPolicy().MaxDistance {
		t.Errorf("threshold %v not exported", v.Threshold)
	}
	if m := v.Margin(); m != v.Threshold {
		t.Errorf("margin %v, want full threshold headroom", m)
	}

	// Different location: flagged with negative margin, and the scored
	// verdict must agree with the legacy Observe tuple.
	v, err = tr.ObserveVerdict(attacker)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != Flag {
		t.Fatalf("attacker accepted: %+v", v)
	}
	if v.Margin() >= 0 {
		t.Errorf("flagged margin %v, want negative", v.Margin())
	}

	tr2 := NewTracker(legit, DefaultPolicy(), 0.3)
	dec, dist, err := tr2.Observe(attacker)
	if err != nil {
		t.Fatal(err)
	}
	if dec != v.Decision || dist != v.Distance {
		t.Errorf("Observe (%v, %v) disagrees with ObserveVerdict %+v", dec, dist, v)
	}
}

func TestDefenseVerdictGridMismatchFlags(t *testing.T) {
	g := grid360()
	legit := FromPseudospectrum(gauss(g, []float64{100}, []float64{4}, []float64{1}))
	tr := NewTracker(legit, DefaultPolicy(), 0.3)
	short := &Signature{AnglesDeg: g[:10], P: legit.P[:10]}
	v, err := tr.ObserveVerdict(short)
	if err == nil || v.Decision != Flag {
		t.Fatalf("grid mismatch verdict = %+v, err %v", v, err)
	}
}
