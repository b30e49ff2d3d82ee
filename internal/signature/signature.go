// Package signature implements SecureAngle's AoA signatures: a client's
// pseudospectrum sampled on a fixed bearing grid, the distance metrics
// that discriminate legitimate clients from spoofers, the
// tracking/updating of signatures as channels drift (section 2.3.2), and
// binary serialisation for shipping signatures between AP and controller.
package signature

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"secureangle/internal/music"
)

// Signature is an AoA signature: the normalised pseudospectrum of a client
// as seen by one AP. The combined direct-path and reflection-path AoAs
// form the unique signature for each client (section 1).
type Signature struct {
	// AnglesDeg is the bearing grid; all signatures compared against each
	// other must share it.
	AnglesDeg []float64
	// P is the pseudospectrum, normalised to unit total energy so metric
	// comparisons are scale-free.
	P []float64
}

// FromPseudospectrum builds a signature from a MUSIC pseudospectrum,
// normalising to unit energy. The bearing grid is shared with the
// pseudospectrum (a grid is immutable once built; nothing in the
// signature lifecycle writes it), while P is copied since the signature
// normalises it in place.
func FromPseudospectrum(ps *music.Pseudospectrum) *Signature {
	s := &Signature{
		AnglesDeg: ps.AnglesDeg,
		P:         append([]float64(nil), ps.P...),
	}
	s.normalize()
	return s
}

func (s *Signature) normalize() {
	var e float64
	for _, v := range s.P {
		e += v * v
	}
	e = math.Sqrt(e)
	if e == 0 {
		return
	}
	for i := range s.P {
		s.P[i] /= e
	}
}

// Clone returns a deep copy.
func (s *Signature) Clone() *Signature {
	return &Signature{
		AnglesDeg: append([]float64(nil), s.AnglesDeg...),
		P:         append([]float64(nil), s.P...),
	}
}

// ErrGridMismatch reports signatures on different bearing grids.
var ErrGridMismatch = errors.New("signature: bearing grids differ")

func (s *Signature) checkGrid(o *Signature) error {
	if len(s.P) != len(o.P) || len(s.AnglesDeg) != len(o.AnglesDeg) {
		return ErrGridMismatch
	}
	// Spot-check endpoints rather than every grid point.
	n := len(s.AnglesDeg)
	if n > 0 && (s.AnglesDeg[0] != o.AnglesDeg[0] || s.AnglesDeg[n-1] != o.AnglesDeg[n-1]) {
		return ErrGridMismatch
	}
	return nil
}

// Similarity returns the cosine similarity between two signatures in
// [0, 1] (both are nonnegative spectra): 1 means identical shape.
func Similarity(a, b *Signature) (float64, error) {
	if err := a.checkGrid(b); err != nil {
		return 0, err
	}
	var dot, na, nb float64
	for i := range a.P {
		dot += a.P[i] * b.P[i]
		na += a.P[i] * a.P[i]
		nb += b.P[i] * b.P[i]
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dot / math.Sqrt(na*nb), nil
}

// Distance returns 1 - Similarity, a dissimilarity in [0, 1].
func Distance(a, b *Signature) (float64, error) {
	sim, err := Similarity(a, b)
	if err != nil {
		return 0, err
	}
	return 1 - sim, nil
}

// PeakBearings returns the bearings of the signature's dominant peaks
// (direct path plus reflections), strongest first.
func (s *Signature) PeakBearings(minSepDeg, floorDB float64) []float64 {
	ps := &music.Pseudospectrum{AnglesDeg: s.AnglesDeg, P: s.P}
	peaks := ps.Peaks(minSepDeg, floorDB)
	out := make([]float64, len(peaks))
	for i, p := range peaks {
		out[i] = p.BearingDeg
	}
	return out
}

// --- Matching and tracking (section 2.3.2) ---

// MatchPolicy sets the accept/flag decision.
type MatchPolicy struct {
	// MaxDistance accepts a packet when Distance(stored, observed) is at
	// most this value. Calibrated so normal channel drift stays below it
	// while a different transmit location exceeds it.
	MaxDistance float64
}

// DefaultPolicy returns a threshold that separates same-location drift
// from different-location signatures in the testbed experiments.
func DefaultPolicy() MatchPolicy { return MatchPolicy{MaxDistance: 0.12} }

// Validate rejects a policy no tracker can apply: the cosine distance
// lives in [0, 2], so a non-positive threshold flags every packet
// (including the training one) and a threshold above 2 accepts every
// packet. Zero is tolerated as "use the default" by callers that
// normalise configs; Validate itself is strict.
func (p MatchPolicy) Validate() error {
	if p.MaxDistance <= 0 || p.MaxDistance > 2 {
		return fmt.Errorf("signature: MaxDistance %g outside (0, 2]", p.MaxDistance)
	}
	return nil
}

// Decision is the outcome of a signature check.
type Decision int

const (
	// Accept: signature matches the stored profile.
	Accept Decision = iota
	// Flag: signature deviates — possible address spoofing.
	Flag
)

// String names the decision.
func (d Decision) String() string {
	if d == Accept {
		return "accept"
	}
	return "flag"
}

// Verdict is the scored outcome of a signature check: the binary
// decision plus the distance it was made at and the threshold it was
// made against, so callers (and the controller's defense engine) see
// *how close* the call was, not just which side of the line it fell on.
type Verdict struct {
	Decision Decision
	// Distance is the observed signature distance to the certified Scl.
	Distance float64
	// Threshold is the policy's MaxDistance the distance was compared to.
	Threshold float64
}

// Margin is the verdict's headroom: Threshold - Distance. Positive for
// accepted packets (how much drift remained before a flag), negative
// for flagged ones (how far past the threshold the mismatch landed).
// A barely-flagged packet (margin just below zero) and a
// gross mismatch (margin near -Threshold or beyond) carry very
// different threat weight downstream.
func (v Verdict) Margin() float64 { return v.Threshold - v.Distance }

// Tracker maintains a client's certified signature Scl, updating it with
// accepted observations so that slow channel drift is tracked while abrupt
// changes are flagged (the paper: "Since Scl changes when the client or
// nearby obstacles move, the AP needs to track and update Scl").
type Tracker struct {
	Policy MatchPolicy
	// Alpha is the EWMA weight of a new accepted observation.
	Alpha float64

	stored *Signature
	// consecutive flags, for diagnostics/hysteresis by callers
	flagRun int
}

// NewTracker starts a tracker from the training-stage signature.
func NewTracker(initial *Signature, policy MatchPolicy, alpha float64) *Tracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	return &Tracker{Policy: policy, Alpha: alpha, stored: initial.Clone()}
}

// Stored returns (a copy of) the current certified signature.
func (t *Tracker) Stored() *Signature { return t.stored.Clone() }

// FlagRun returns the current count of consecutive flagged observations.
func (t *Tracker) FlagRun() int { return t.flagRun }

// Observe checks an incoming signature against the stored one. Accepted
// observations update the stored signature by EWMA; flagged ones leave it
// untouched (an attacker must not be able to walk the profile toward
// itself). The distance is returned for logging/metrics.
func (t *Tracker) Observe(obs *Signature) (Decision, float64, error) {
	v, err := t.ObserveVerdict(obs)
	return v.Decision, v.Distance, err
}

// ObserveVerdict is Observe returning the full scored verdict — the
// decision together with the distance and the threshold it was judged
// against, so the margin of the call survives into the caller.
func (t *Tracker) ObserveVerdict(obs *Signature) (Verdict, error) {
	v := Verdict{Threshold: t.Policy.MaxDistance}
	d, err := Distance(t.stored, obs)
	if err != nil {
		v.Decision = Flag
		return v, err
	}
	v.Distance = d
	if d > t.Policy.MaxDistance {
		t.flagRun++
		v.Decision = Flag
		return v, nil
	}
	t.flagRun = 0
	for i := range t.stored.P {
		t.stored.P[i] = (1-t.Alpha)*t.stored.P[i] + t.Alpha*obs.P[i]
	}
	t.stored.normalize()
	v.Decision = Accept
	return v, nil
}

// --- Serialisation ---

// magic identifies the wire format.
const magic = uint32(0x53414e47) // "SANG"

// Marshal encodes the signature in a compact binary form (big endian):
// magic, count, then angle/value float64 pairs.
func (s *Signature) Marshal() []byte {
	n := len(s.P)
	out := make([]byte, 8+16*n)
	binary.BigEndian.PutUint32(out[0:4], magic)
	binary.BigEndian.PutUint32(out[4:8], uint32(n))
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(out[8+16*i:], math.Float64bits(s.AnglesDeg[i]))
		binary.BigEndian.PutUint64(out[16+16*i:], math.Float64bits(s.P[i]))
	}
	return out
}

// Unmarshal decodes a signature produced by Marshal.
func Unmarshal(b []byte) (*Signature, error) {
	if len(b) < 8 {
		return nil, errors.New("signature: short buffer")
	}
	if binary.BigEndian.Uint32(b[0:4]) != magic {
		return nil, errors.New("signature: bad magic")
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	if n < 0 || len(b) != 8+16*n {
		return nil, fmt.Errorf("signature: length %d does not match count %d", len(b), n)
	}
	s := &Signature{AnglesDeg: make([]float64, n), P: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.AnglesDeg[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8+16*i:]))
		s.P[i] = math.Float64frombits(binary.BigEndian.Uint64(b[16+16*i:]))
	}
	return s, nil
}
