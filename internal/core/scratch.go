package core

import (
	"math"

	"secureangle/internal/cmat"
	"secureangle/internal/detect"
	"secureangle/internal/dsp"
	"secureangle/internal/music"
	"secureangle/internal/pool"
)

// pipeScratch carries every reusable buffer one packet's pipeline pass
// needs: the sample arena (receive synthesis, detection metric, packet
// windows), the covariance matrix, the Jacobi eigensolver workspace, the
// root-MUSIC polynomial buffers, and the small index/steering scratch of
// the bearing selection. One scratch serves one pass at a time; the AP
// keeps them in a sync.Pool so concurrent batch workers each hold their
// own and the steady-state packet path allocates only what escapes into
// the Report.
type pipeScratch struct {
	arena *pool.Arena
	cov   cmat.Matrix
	eig   cmat.EigWorkspace
	dets  []detect.Detection
	root  music.RootScratch
	steer []complex128
	peaks []int
	kept  []int
}

func (ap *AP) getScratch() *pipeScratch {
	if sc, ok := ap.scratch.Get().(*pipeScratch); ok {
		mScratchHits.Inc()
		return sc
	}
	mScratchMisses.Inc()
	n := ap.FE.Array.N()
	return &pipeScratch{
		// The arena grows to fit the first packet and stays there; these
		// are just reasonable starting sizes (a padded testbed frame is
		// ~1100 samples, synthesised at pow2 length 2048 across n chains).
		arena: pool.NewArena(1<<14, 1<<12, 4*n),
		steer: make([]complex128, n),
	}
}

func (ap *AP) putScratch(sc *pipeScratch) {
	sc.arena.Reset()
	ap.scratch.Put(sc)
}

// bearingFromEig picks the report bearing on the default (nil-estimator)
// path. On a uniform linear array the grid-free estimators resolve the
// arrival angles from the packet's eigendecomposition directly — no grid
// quantisation — and the Bartlett power re-rank then selects the arrival
// carrying the most energy, exactly the selection rule of the grid path.
// Any grid-free failure (root finding, degenerate subspace) falls back
// to the grid scan, as does a non-ULA array or Config.Bearing ==
// BearingGrid. The pseudospectrum (and therefore the AoA signature and
// the spoof/fence decisions built on it) always comes from the grid
// scan; only the bearing estimate goes grid-free.
func (ap *AP) bearingFromEig(eig *cmat.EigResult, k int, r *cmat.Matrix, ps *music.Pseudospectrum, sc *pipeScratch) float64 {
	if ap.ulaOK && ap.cfg.Bearing != BearingGrid {
		var (
			doas []float64
			err  error
		)
		if ap.cfg.Bearing == BearingESPRIT {
			doas, err = music.ESPRITDOAsFromEig(eig, k, ap.ulaSpacingWl, ap.ulaAxisDeg)
		} else {
			doas, err = music.RootDOAsFromEig(eig, k, ap.ulaSpacingWl, ap.ulaAxisDeg, &sc.root)
		}
		if err == nil && len(doas) > 0 {
			return ap.bestByBartlett(doas, r, sc)
		}
	}
	return ap.rankPeaksScratch(ps, r, sc)
}

// bestByBartlett returns the DOA with the highest Bartlett (delay-and-
// sum) power — the grid-free counterpart of rankPeaksScratch's re-rank.
func (ap *AP) bestByBartlett(doas []float64, r *cmat.Matrix, sc *pipeScratch) float64 {
	if len(doas) == 1 {
		return doas[0]
	}
	best, bd := math.Inf(-1), doas[0]
	for _, d := range doas {
		ap.FE.Array.SteeringInto(sc.steer, d)
		if p := bartlettPower(r, sc.steer); p > best {
			best, bd = p, d
		}
	}
	return bd
}

// bartlettPower evaluates a^H R a / n for one steering vector.
func bartlettPower(r *cmat.Matrix, a []complex128) float64 {
	nn := r.Rows
	var num complex128
	for e := 0; e < nn; e++ {
		row := r.Data[e*nn : (e+1)*nn]
		var ra complex128
		for f, v := range row {
			ra += v * a[f]
		}
		num += complex(real(a[e]), -imag(a[e])) * ra
	}
	return math.Max(real(num)/float64(nn), 0)
}

// rankPeaksScratch selects the bearing estimate from a pseudospectrum
// scanned on the AP's grid. MUSIC peak height measures subspace
// proximity, not received power: a weak composite of distant reflections
// can out-peak the direct path. Re-ranking the top peaks (local maxima,
// 8 degree separation, within 12 dB of the strongest) by their Bartlett
// (delay-and-sum) power keeps the estimator's angular precision while
// selecting the arrival that actually carries the most energy — the
// direct path whenever one exists (section 3.1). It works on grid
// indices, so the steering vectors come from the precomputed manifold
// and the peak bookkeeping reuses the scratch index slices: nothing is
// allocated.
func (ap *AP) rankPeaksScratch(ps *music.Pseudospectrum, r *cmat.Matrix, sc *pipeScratch) float64 {
	n := len(ps.P)
	cands := sc.peaks[:0]
	for i := 0; i < n; i++ {
		v := ps.P[i]
		left, right := math.Inf(-1), math.Inf(-1)
		if i > 0 {
			left = ps.P[i-1]
		}
		if i < n-1 {
			right = ps.P[i+1]
		}
		if v >= left && v > right || v > left && v >= right {
			cands = append(cands, i)
		}
	}
	// Insertion sort, descending by pseudospectrum value.
	for i := 1; i < len(cands); i++ {
		j := i
		for j > 0 && ps.P[cands[j]] > ps.P[cands[j-1]] {
			cands[j], cands[j-1] = cands[j-1], cands[j]
			j--
		}
	}
	// Enforce the minimum angular separation, strongest first.
	kept := sc.kept[:0]
	for _, c := range cands {
		ok := true
		for _, kp := range kept {
			if angSepDeg(ps.AnglesDeg[kp], ps.AnglesDeg[c]) < 8 {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	sc.peaks, sc.kept = cands, kept
	if len(kept) == 0 {
		return ps.PeakBearing()
	}
	// Drop peaks more than 12 dB below the strongest.
	top := ps.P[kept[0]]
	m := kept[:0]
	for _, c := range kept {
		if dsp.DB(ps.P[c]/top) >= -12 {
			m = append(m, c)
		}
	}
	kept = m
	if len(kept) <= 1 {
		return ps.PeakBearing()
	}
	best, bi := -1.0, kept[0]
	for _, c := range kept {
		if p := bartlettPower(r, ap.manifold.Steering(c)); p > best {
			best, bi = p, c
		}
	}
	return ps.AnglesDeg[bi]
}

func angSepDeg(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 360)
	if d > 180 {
		d = 360 - d
	}
	return d
}
