// Package music implements the eigenstructure angle-of-arrival estimation
// at the heart of SecureAngle: packet-scale antenna correlation matrices,
// the MUSIC pseudospectrum (Schmidt 1986, reference [12] of the paper),
// Bartlett and Capon/MVDR baselines, forward-backward averaging and
// spatial smoothing for coherent multipath, and MDL/AIC source counting.
//
// The pseudospectrum — likelihood of received energy versus bearing — is
// both the bearing estimator (its highest peak is the direct path most of
// the time, section 3.1) and, sampled on a fixed grid, the client
// signature itself (section 2.1).
package music

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/dsp"
)

// Covariance estimates the m x m antenna correlation matrix from
// per-antenna sample streams: R[l][m] = mean over the packet of
// x_l[t] * conj(x_m[t]) — "computing the correlation matrix to obtain mean
// phase differences with each entire packet" (section 3). All streams must
// share a length.
func Covariance(streams [][]complex128) (*cmat.Matrix, error) {
	m := len(streams)
	if m == 0 {
		return nil, errors.New("music: no streams")
	}
	n := len(streams[0])
	if n == 0 {
		return nil, errors.New("music: empty streams")
	}
	for _, s := range streams {
		if len(s) != n {
			return nil, errors.New("music: stream lengths differ")
		}
	}
	r := cmat.New(m, m)
	x := make([]complex128, m)
	for t := 0; t < n; t++ {
		for a := 0; a < m; a++ {
			x[a] = streams[a][t]
		}
		r.AccumulateOuter(x, x)
	}
	r.ScaleInPlace(complex(1/float64(n), 0))
	r.Hermitize()
	return r, nil
}

// CovarianceInto is Covariance computing into r, reshaping its backing
// storage only when too small — the allocation-free variant for the
// per-packet hot path. It accumulates pair-major over the Hermitian
// upper triangle (m(m+1)/2 inner products instead of m^2), mirroring
// the lower triangle by conjugation, so it is also ~40% cheaper than
// the sample-major outer-product form. Returns r.
func CovarianceInto(r *cmat.Matrix, streams [][]complex128) (*cmat.Matrix, error) {
	m := len(streams)
	if m == 0 {
		return nil, errors.New("music: no streams")
	}
	n := len(streams[0])
	if n == 0 {
		return nil, errors.New("music: empty streams")
	}
	for _, s := range streams {
		if len(s) != n {
			return nil, errors.New("music: stream lengths differ")
		}
	}
	if cap(r.Data) < m*m {
		r.Data = make([]complex128, m*m)
	}
	r.Rows, r.Cols = m, m
	r.Data = r.Data[:m*m]
	inv := 1 / float64(n)
	set := func(i, j int, re, im float64) {
		re *= inv
		im *= inv
		if i == j {
			r.Data[i*m+i] = complex(re, 0)
			return
		}
		r.Data[i*m+j] = complex(re, im)
		r.Data[j*m+i] = complex(re, -im)
	}
	for i := 0; i < m; i++ {
		si := streams[i][:n]
		// Two entries (i, j), (i, j+1) per pass over t, each with its own
		// accumulators summed in t order, so every entry is bitwise what
		// a pass of its own gives; four spill registers and run slower.
		j := i
		for ; j+1 < m; j += 2 {
			sj, sk := streams[j][:n], streams[j+1][:n]
			var re0, im0, re1, im1 float64
			for t, a := range si {
				b, c := sj[t], sk[t]
				// a * conj(b), a * conj(c)
				re0 += real(a)*real(b) + imag(a)*imag(b)
				im0 += imag(a)*real(b) - real(a)*imag(b)
				re1 += real(a)*real(c) + imag(a)*imag(c)
				im1 += imag(a)*real(c) - real(a)*imag(c)
			}
			set(i, j, re0, im0)
			set(i, j+1, re1, im1)
		}
		if j < m {
			sj := streams[j][:n]
			var re, im float64
			for t, a := range si {
				b := sj[t]
				re += real(a)*real(b) + imag(a)*imag(b)
				im += imag(a)*real(b) - real(a)*imag(b)
			}
			set(i, j, re, im)
		}
	}
	return r, nil
}

// ForwardBackward applies forward-backward averaging,
// R_fb = (R + J conj(R) J) / 2 with J the exchange matrix — a standard
// decorrelation step for coherent multipath on centro-symmetric arrays
// (the ULA qualifies).
func ForwardBackward(r *cmat.Matrix) *cmat.Matrix {
	m := r.Rows
	out := cmat.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fw := r.At(i, j)
			bw := cmplx.Conj(r.At(m-1-i, m-1-j))
			out.Set(i, j, (fw+bw)/2)
		}
	}
	out.Hermitize()
	return out
}

// SpatialSmooth averages the covariances of all contiguous subarrays of
// size sub (forward smoothing), restoring rank under coherent multipath at
// the cost of effective aperture. Only meaningful for uniform linear
// arrays, whose subarrays share steering structure.
func SpatialSmooth(r *cmat.Matrix, sub int) (*cmat.Matrix, error) {
	m := r.Rows
	if sub < 2 || sub > m {
		return nil, fmt.Errorf("music: subarray size %d out of range [2, %d]", sub, m)
	}
	nSub := m - sub + 1
	out := cmat.New(sub, sub)
	for s := 0; s < nSub; s++ {
		out.AddInPlace(r.Submatrix(s, s+sub, s, s+sub))
	}
	out.ScaleInPlace(complex(1/float64(nSub), 0))
	out.Hermitize()
	return out, nil
}

// Pseudospectrum is a likelihood-versus-bearing curve on a fixed grid.
type Pseudospectrum struct {
	// AnglesDeg is the bearing grid (global degrees).
	AnglesDeg []float64
	// P is the linear (not dB) pseudospectrum value per grid point.
	P []float64
}

// PeakBearing returns the bearing of the global maximum — the paper's
// bearing estimate ("the angle corresponding to the maximum point on its
// pseudospectrum", section 3.1).
func (ps *Pseudospectrum) PeakBearing() float64 {
	best, bi := math.Inf(-1), 0
	for i, v := range ps.P {
		if v > best {
			best, bi = v, i
		}
	}
	return ps.AnglesDeg[bi]
}

// Peak describes one local maximum of the pseudospectrum.
type Peak struct {
	BearingDeg float64
	Value      float64 // linear
	RelDB      float64 // dB relative to the strongest peak
}

// Peaks returns local maxima at least minSepDeg apart and within floorDB
// of the strongest, sorted by descending value. Grid endpoints count as
// peaks when they dominate their single neighbour (a direct path at the
// scan edge must not vanish).
func (ps *Pseudospectrum) Peaks(minSepDeg, floorDB float64) []Peak {
	n := len(ps.P)
	if n == 0 {
		return nil
	}
	var cands []Peak
	for i := 0; i < n; i++ {
		v := ps.P[i]
		left := math.Inf(-1)
		right := math.Inf(-1)
		if i > 0 {
			left = ps.P[i-1]
		}
		if i < n-1 {
			right = ps.P[i+1]
		}
		if v >= left && v > right || v > left && v >= right {
			cands = append(cands, Peak{BearingDeg: ps.AnglesDeg[i], Value: v})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].Value > cands[b].Value })
	var out []Peak
	for _, c := range cands {
		tooClose := false
		for _, kept := range out {
			if angularSep(kept.BearingDeg, c.BearingDeg) < minSepDeg {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil
	}
	top := out[0].Value
	kept := out[:0]
	for _, p := range out {
		p.RelDB = dsp.DB(p.Value / top)
		if p.RelDB >= -floorDB {
			kept = append(kept, p)
		}
	}
	return kept
}

func angularSep(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 360)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// NormalizedDB returns the pseudospectrum in dB relative to its maximum
// (the form Figures 6 and 7 plot).
func (ps *Pseudospectrum) NormalizedDB() []float64 {
	peak := math.Inf(-1)
	for _, v := range ps.P {
		peak = math.Max(peak, v)
	}
	out := make([]float64, len(ps.P))
	for i, v := range ps.P {
		if peak <= 0 {
			out[i] = -300
			continue
		}
		out[i] = dsp.DB(v / peak)
	}
	return out
}

// Estimator computes a pseudospectrum from a covariance matrix for a given
// array and scan grid.
type Estimator interface {
	// Name identifies the estimator in experiment output.
	Name() string
	// Pseudospectrum evaluates likelihood over the grid.
	Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, gridDeg []float64) (*Pseudospectrum, error)
}

// MUSIC is the eigenstructure estimator. Sources fixes the signal-subspace
// dimension; if zero, the MDL criterion chooses it per covariance (using
// Samples as the observation count).
type MUSIC struct {
	Sources int
	// Samples is the number of snapshots behind the covariance, needed by
	// MDL/AIC when Sources == 0. Defaults to 1000 if unset.
	Samples int
}

// Name implements Estimator.
func (m *MUSIC) Name() string { return "MUSIC" }

// Pseudospectrum implements Estimator: P(theta) =
// 1 / || En^H a(theta) ||^2, with En the noise subspace. It adapts the
// grid signature onto the manifold fast path by evaluating a one-shot
// manifold for the given grid; callers scanning the same grid repeatedly
// should precompute an antenna.Manifold and use PseudospectrumOnManifold.
func (m *MUSIC) Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, gridDeg []float64) (*Pseudospectrum, error) {
	if r.Rows != arr.N() {
		return nil, fmt.Errorf("music: covariance is %dx%d but array has %d elements", r.Rows, r.Cols, arr.N())
	}
	return m.PseudospectrumOnManifold(r, antenna.NewManifold(arr, gridDeg), 0)
}

// Bartlett is the classical delay-and-sum beamformer baseline:
// P(theta) = a^H R a / (a^H a).
type Bartlett struct{}

// Name implements Estimator.
func (Bartlett) Name() string { return "Bartlett" }

// Pseudospectrum implements Estimator by adapting the grid signature onto
// the manifold fast path.
func (b Bartlett) Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, gridDeg []float64) (*Pseudospectrum, error) {
	if r.Rows != arr.N() {
		return nil, fmt.Errorf("music: covariance is %dx%d but array has %d elements", r.Rows, r.Cols, arr.N())
	}
	return b.PseudospectrumOnManifold(r, antenna.NewManifold(arr, gridDeg), 0)
}

// MVDR is the Capon minimum-variance beamformer baseline:
// P(theta) = 1 / (a^H R^-1 a). DiagonalLoad stabilises the inverse for
// nearly-singular packet covariances (fraction of the mean eigenvalue).
type MVDR struct {
	DiagonalLoad float64
}

// Name implements Estimator.
func (MVDR) Name() string { return "MVDR" }

// Pseudospectrum implements Estimator by adapting the grid signature onto
// the manifold fast path.
func (mv MVDR) Pseudospectrum(r *cmat.Matrix, arr *antenna.Array, gridDeg []float64) (*Pseudospectrum, error) {
	if r.Rows != arr.N() {
		return nil, fmt.Errorf("music: covariance is %dx%d but array has %d elements", r.Rows, r.Cols, arr.N())
	}
	return mv.PseudospectrumOnManifold(r, antenna.NewManifold(arr, gridDeg), 0)
}

// MDLSources estimates the number of sources from sorted-descending
// eigenvalues and snapshot count n using the minimum description length
// criterion (Wax & Kailath).
func MDLSources(eigvals []float64, n int) int {
	m := len(eigvals)
	if m < 2 {
		return 1
	}
	best, bestK := math.Inf(1), 1
	for k := 0; k < m; k++ {
		c := infoCriterion(eigvals, n, k)
		pen := 0.5 * float64(k*(2*m-k)) * math.Log(float64(n))
		if v := c + pen; v < best {
			best, bestK = v, k
		}
	}
	if bestK < 1 {
		bestK = 1
	}
	return bestK
}

// AICSources is the Akaike variant (penalty k(2m-k)).
func AICSources(eigvals []float64, n int) int {
	m := len(eigvals)
	if m < 2 {
		return 1
	}
	best, bestK := math.Inf(1), 1
	for k := 0; k < m; k++ {
		c := infoCriterion(eigvals, n, k)
		pen := float64(k * (2*m - k))
		if v := c + pen; v < best {
			best, bestK = v, k
		}
	}
	if bestK < 1 {
		bestK = 1
	}
	return bestK
}

// infoCriterion computes -n(m-k) log( geoMean / arithMean ) of the m-k
// smallest eigenvalues.
func infoCriterion(eigvals []float64, n, k int) float64 {
	m := len(eigvals)
	tail := eigvals[k:]
	var logSum, sum float64
	for _, v := range tail {
		v = math.Max(v, 1e-18)
		logSum += math.Log(v)
		sum += v
	}
	cnt := float64(m - k)
	geo := logSum / cnt
	arith := math.Log(sum / cnt)
	return -float64(n) * cnt * (geo - arith)
}
