package experiments

import (
	"fmt"
	"strings"
	"sync"

	"secureangle/internal/core"
	"secureangle/internal/detect"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/radio"
	"secureangle/internal/rng"
	"secureangle/internal/testbed"
)

// Fig7Row is the pseudospectrum of the same packet analysed with a
// 2-, 4-, 6- or 8-antenna linear subarray.
type Fig7Row struct {
	Antennas    int
	PeakBearing float64
	PeakCount   int // peaks within 10 dB of the top, >= 8 deg apart
	SpectrumDB  []float64
	GridDeg     []float64
	AbsError    float64
}

// Fig7Result holds the Figure 7 reproduction: resolution versus antenna
// count for pillar-blocked client 12.
type Fig7Result struct {
	ClientID    int
	GroundTruth float64
	Rows        []Fig7Row
}

// RunFig7 reproduces Figure 7: one packet from client 12 (strong
// multipath behind the pillar) is captured on the full 8-antenna linear
// array; the same capture is then analysed with its first 2, 4, 6 and all
// 8 antennas. More antennas sharpen the pseudospectrum and separate the
// direct path from reflections.
func RunFig7(seed int64) (*Fig7Result, error) {
	e, _ := testbed.Building()
	arr := testbed.LinearArray()
	fe := testbed.NewAPFrontEnd(arr, testbed.AP1, rng.New(seed))
	c12, err := testbed.ClientByID(12)
	if err != nil {
		return nil, err
	}
	truth := testbed.GroundTruth(testbed.AP1, c12.Pos)

	// One capture, shared by all antenna subsets — exactly "the AoA
	// pseudospectrum plot for the same packet with 2, 4, 6 and 8
	// antennas".
	bb, err := testbed.FrameBaseband(testbed.UplinkFrame(12, 1, []byte("fig7")), ofdm.QPSK)
	if err != nil {
		return nil, err
	}
	streams, err := fe.Receive(e, c12.Pos, bb)
	if err != nil {
		return nil, err
	}
	radio.ApplyCalibration(streams, fe.Calibrate(2000))

	dets := detect.Find(streams[0], detect.DefaultConfig())
	if len(dets) == 0 {
		return nil, core.ErrNotDetected
	}
	win, ok := detect.ExtractAligned(streams, dets[0], packetSamples(streams[0], dets[0].Start))
	if !ok {
		return nil, fmt.Errorf("experiments: fig7 extraction failed")
	}

	// The subarray analyses share one capture and are independent of each
	// other — run them concurrently.
	counts := []int{2, 4, 6, 8}
	rows := make([]Fig7Row, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	for i, n := range counts {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			idx := make([]int, n)
			for j := range idx {
				idx[j] = j
			}
			sub := arr.Subarray(idx...)
			r, err := music.Covariance(win[:n])
			if err != nil {
				errs[i] = err
				return
			}
			est := &music.MUSIC{Sources: 0, Samples: len(win[0])}
			ps, err := est.Pseudospectrum(r, sub, sub.ScanGrid(0.5))
			if err != nil {
				errs[i] = err
				return
			}
			peaks := ps.Peaks(8, 10)
			rows[i] = Fig7Row{
				Antennas:    n,
				PeakBearing: ps.PeakBearing(),
				PeakCount:   len(peaks),
				SpectrumDB:  ps.NormalizedDB(),
				GridDeg:     ps.AnglesDeg,
				AbsError:    geom.AngularDistDeg(ps.PeakBearing(), truth),
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Fig7Result{ClientID: 12, GroundTruth: truth, Rows: rows}
	return res, nil
}

// packetSamples mirrors core's packet-extent heuristic for the shared
// capture (kept local to avoid exporting an internal detail from core).
func packetSamples(x []complex128, start int) int {
	n := len(x) - start
	if n > 2000 {
		n = 2000
	}
	return n
}

// Render prints the Figure 7 summary rows.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: resolution vs antenna count (client %d, truth %s, linear array)\n",
		r.ClientID, fmtDeg(r.GroundTruth))
	fmt.Fprintf(&b, "%-10s %-12s %-10s %s\n", "antennas", "peak(deg)", "err(deg)", "resolved peaks (10 dB window)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10d %-12s %-10.1f %d\n", row.Antennas, fmtDeg(row.PeakBearing), row.AbsError, row.PeakCount)
	}
	return b.String()
}

// ResolutionImproves checks Figure 7's qualitative claims: 2 antennas see
// a single broad peak; 6 or more antennas resolve at least two arrivals
// (direct + reflection); and the 8-antenna bearing error does not exceed
// the 2-antenna error.
func (r *Fig7Result) ResolutionImproves() bool {
	byN := map[int]Fig7Row{}
	for _, row := range r.Rows {
		byN[row.Antennas] = row
	}
	if byN[2].PeakCount > 1 {
		// A two-antenna ULA cannot resolve two sources; its pseudospectrum
		// with one noise-subspace dimension yields a single ridge.
		return false
	}
	if byN[6].PeakCount < 2 && byN[8].PeakCount < 2 {
		return false
	}
	return byN[8].AbsError <= byN[2].AbsError+1e-9
}
