// Package radio simulates the access point's multi-channel receiver — the
// role the WARP boards play in the SecureAngle prototype — and the
// calibration rig of section 2.2 (a USRP2 feeding a continuous carrier
// through equal-length cables into every radio front end).
//
// The front end applies, in order, exactly the impairments the hardware
// introduces and nothing else:
//
//  1. per-path steering phases from the array geometry (the physics),
//  2. a fixed, unknown phase offset per radio chain (the downconverter
//     impairment calibration must remove),
//  3. a common carrier frequency offset between client and AP (the boards
//     share oscillators and sampling clocks, so the offset is identical on
//     every chain),
//  4. additive white Gaussian noise per chain at a configured SNR,
//  5. optional ADC quantisation.
package radio

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"secureangle/internal/antenna"
	"secureangle/internal/dsp"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/pool"
	"secureangle/internal/rng"
)

// ErrBlocked reports a transmitter with no propagation path to the AP —
// every ray (direct and reflected) is obstructed. Callers that must
// distinguish "unhearable" from other failures test with errors.Is.
var ErrBlocked = errors.New("radio: no propagation paths (fully blocked)")

// FrontEnd is one AP's receive chain set.
type FrontEnd struct {
	Array *antenna.Array
	// Pos is the AP (array centre) position in the environment.
	Pos geom.Point
	// PhaseOffsets holds the per-chain downconverter phase (radians),
	// unknown to the algorithms until calibration estimates it.
	PhaseOffsets []float64
	// CFOHz is the residual carrier offset between client and AP.
	CFOHz float64
	// SNRdB sets the per-chain noise level relative to the mean received
	// signal power across chains. Ignored when NoiseFloor is set.
	SNRdB float64
	// NoiseFloor, if positive, is an absolute per-sample noise variance:
	// with it, distant or blocked clients naturally arrive at lower SNR,
	// as in the real testbed. Overrides SNRdB.
	NoiseFloor float64
	// QuantBits, if nonzero, quantises I and Q to that many bits across
	// a full scale of +-4 sigma of the signal.
	QuantBits int
	// SampleRate of the ADCs.
	SampleRate float64

	// mu guards the noise stream and the two synthesis caches; the
	// deterministic synthesis itself runs outside the lock.
	mu         sync.Mutex
	noise      *rng.Source
	chanCache  map[chanKey]*chanResponse
	cleanCache map[cleanKey]*cleanEntry
	// cleanSeen rings the keys of recent clean captures: a capture is
	// admitted to cleanCache only on its key's second sighting, so a
	// stream of unique frames never pays for copying one in.
	cleanSeen     [cleanSeenRing]cleanKey
	cleanSeenNext int
}

// maxChanCacheEntries bounds the per-front-end channel cache (an entry is
// one per-antenna frequency response, ~N*NextPow2(len(baseband))
// complexes).
const maxChanCacheEntries = 64

// maxCleanCacheEntries bounds the clean-capture cache (an entry is one
// full set of pre-impairment antenna streams, ~N*len(baseband)
// complexes, so the bound is deliberately small).
const maxCleanCacheEntries = 16

// cleanSeenRing is how many recent capture keys (no sample data) the
// admission filter remembers.
const cleanSeenRing = 64

// chanKey identifies one cached channel: transmitter position and
// baseband length (which fixes the pow2 transform length).
type chanKey struct {
	x, y float64
	n    int
}

// chanResponse is the frequency-domain channel from one transmitter to
// every antenna, valid for one environment drift epoch. The response is
// held at the pow2 transform length m >= n, with the transform resolved
// once, so synthesis runs entirely on cached-table power-of-two
// transforms (a non-pow2 length would go through Bluestein: three times
// the transforms and a scratch buffer per call). Each bin carries the
// inverse transform's 1/m, so synthesis never rescales, and the bins are
// stored in bit-reversed order, permuted once here, so synthesis reads
// them sequentially.
type chanResponse struct {
	epoch uint64
	fft   dsp.Pow2
	m     int
	h     [][]complex128 // [antenna][bit-reversed DFT bin], length m, scaled by 1/m
}

// cleanKey identifies one cached clean capture: transmitter position,
// baseband length, and a content hash of the baseband samples.
type cleanKey struct {
	x, y float64
	n    int
	hash uint64
}

// cleanEntry is the pre-impairment per-antenna capture for one
// (transmitter, baseband) pair — the fully deterministic half of Receive.
// Replaying it and applying live impairments draws exactly the same noise
// sequence as a fresh synthesis, so caching is invisible to determinism.
type cleanEntry struct {
	epoch   uint64
	streams [][]complex128 // [antenna][0:n], clean
}

// basebandHash is a word-wise FNV-1a over the sample bits — cheap enough
// (~2 mul/sample) to key the clean-capture cache on content rather than
// identity, so retransmissions of the same frame hit regardless of which
// buffer carries them.
func basebandHash(x []complex128) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range x {
		h = (h ^ math.Float64bits(real(v))) * prime
		h = (h ^ math.Float64bits(imag(v))) * prime
	}
	return h
}

// Option configures a FrontEnd.
type Option func(*FrontEnd)

// WithCFO sets the client-AP carrier frequency offset.
func WithCFO(hz float64) Option { return func(f *FrontEnd) { f.CFOHz = hz } }

// WithSNR sets the per-chain SNR in dB.
func WithSNR(db float64) Option { return func(f *FrontEnd) { f.SNRdB = db } }

// WithNoiseFloor sets an absolute per-sample noise variance, overriding
// the relative SNR model.
func WithNoiseFloor(sigma2 float64) Option { return func(f *FrontEnd) { f.NoiseFloor = sigma2 } }

// WithQuantization enables b-bit ADC quantisation.
func WithQuantization(b int) Option { return func(f *FrontEnd) { f.QuantBits = b } }

// WithPhaseOffsets fixes the per-chain offsets instead of drawing them
// randomly (tests use this to assert exact values).
func WithPhaseOffsets(offsets []float64) Option {
	return func(f *FrontEnd) { f.PhaseOffsets = append([]float64(nil), offsets...) }
}

// NewFrontEnd builds a front end at the given position. Unknown per-chain
// phase offsets are drawn uniformly from [0, 2 pi) — the situation before
// the section 2.2 calibration — unless WithPhaseOffsets overrides them.
func NewFrontEnd(arr *antenna.Array, pos geom.Point, src *rng.Source, opts ...Option) *FrontEnd {
	f := &FrontEnd{
		Array:      arr,
		Pos:        pos,
		CFOHz:      0,
		SNRdB:      25,
		SampleRate: 20e6,
		noise:      src.Fork(),
	}
	f.PhaseOffsets = make([]float64, arr.N())
	for i := range f.PhaseOffsets {
		f.PhaseOffsets[i] = src.Phase()
	}
	for _, o := range opts {
		o(f)
	}
	if len(f.PhaseOffsets) != arr.N() {
		panic("radio: phase offset count != antenna count")
	}
	return f
}

// Receive propagates the transmitted baseband through the environment to
// this AP and returns one sample stream per antenna, all impairments
// applied. The transmit buffer should include lead-in/lead-out padding
// (see ofdm.Modulator.BuildPadded) so fractionally-delayed copies stay
// within the buffer.
//
// Receive is PrepareReceive followed by ReceivePreparedArena with a nil
// arena, so the capture draws its noise from its own fork of the front
// end's stream: N Receive calls give, bit for bit, the captures one
// batch of the same N transmissions prepared in the same order gives.
//
// The multipath channel is applied in the frequency domain: one forward
// FFT of the baseband, then per antenna one pass that multiplies by the
// channel response (cached per transmitter position while the
// environment's drift epoch is unchanged, with the inverse transform's
// 1/m already folded in) fused into the inverse FFT's first stages —
// instead of a forward plus inverse transform per propagation path. The
// result is the same linear combination of fractionally-delayed path
// copies, just summed before the inverse transform rather than after.
func (f *FrontEnd) Receive(e *env.Environment, tx geom.Point, baseband []complex128) ([][]complex128, error) {
	p, err := f.PrepareReceive(e, tx, len(baseband))
	if err != nil {
		return nil, err
	}
	return f.ReceivePreparedArena(&p, baseband, nil)
}

func arenaComplexUninit(ar *pool.Arena, n int) []complex128 {
	if ar == nil {
		return make([]complex128, n)
	}
	return ar.ComplexUninit(n)
}

func arenaStreams(ar *pool.Arena, n int) [][]complex128 {
	if ar == nil {
		return make([][]complex128, n)
	}
	return ar.Streams(n)
}

// replayClean copies a cached clean capture into fresh (arena) buffers so
// the caller can impair them in place.
func (f *FrontEnd) replayClean(ce *cleanEntry, ar *pool.Arena) [][]complex128 {
	out := arenaStreams(ar, len(ce.streams))
	for a, s := range ce.streams {
		dst := arenaComplexUninit(ar, len(s))
		copy(dst, s)
		out[a] = dst
	}
	return out
}

// storeClean caches a private copy of the clean streams under the given
// drift epoch — if their key was seen before: the first sighting only
// records the key.
func (f *FrontEnd) storeClean(key cleanKey, epoch uint64, streams [][]complex128) {
	if !f.admitClean(key) {
		return
	}
	cp := make([][]complex128, len(streams))
	for a, s := range streams {
		cp[a] = append([]complex128(nil), s...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cleanCache == nil {
		f.cleanCache = make(map[cleanKey]*cleanEntry)
	}
	if len(f.cleanCache) >= maxCleanCacheEntries {
		clear(f.cleanCache)
	}
	f.cleanCache[key] = &cleanEntry{epoch: epoch, streams: cp}
}

// admitClean reports whether key is in the recent-key ring, recording
// it there when it is not.
func (f *FrontEnd) admitClean(key cleanKey) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range f.cleanSeen {
		if k == key {
			return true
		}
	}
	f.cleanSeen[f.cleanSeenNext] = key
	f.cleanSeenNext = (f.cleanSeenNext + 1) % cleanSeenRing
	return false
}

// forkNoise draws one capture's private noise stream from the front
// end's stream, advancing it by one draw.
func (f *FrontEnd) forkNoise() *rng.Source {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.noise.Fork()
}

// PreparedReceive is the order-sensitive half of one capture — the
// channel response for one (transmitter, length) pair and a noise stream
// forked from the front end's — so the heavy synthesis can then run on
// any goroutine. Obtain it with PrepareReceive, consume it once with
// ReceivePreparedArena.
type PreparedReceive struct {
	resp  *chanResponse
	noise *rng.Source
	n     int
	tx    geom.Point
}

// PrepareReceive resolves the channel for a transmission of n samples from
// tx and forks a private noise stream for it. Captures are deterministic
// in the order their PrepareReceive calls run: callers that need a fixed
// set of noise realisations (a batch, a stream, a sweep) prepare serially
// in item order, and the ReceivePreparedArena calls that consume the
// results may then run concurrently in any order. With the channel
// cached and a released noise state pooled it allocates nothing.
func (f *FrontEnd) PrepareReceive(e *env.Environment, tx geom.Point, n int) (PreparedReceive, error) {
	if n <= 0 {
		return PreparedReceive{}, errors.New("radio: empty baseband")
	}
	resp, err := f.channelResponse(e, tx, n)
	if err != nil {
		return PreparedReceive{}, err
	}
	return PreparedReceive{resp: resp, noise: f.forkNoise(), n: n, tx: tx}, nil
}

// ReceivePreparedArena synthesises the per-antenna streams for one
// prepared transmission, drawing every output and scratch buffer from ar
// (nil allocates): the returned streams alias the arena and are valid
// until its next Reset. The clean (pre-impairment) capture is replayed
// from the clean-capture cache when this exact (transmitter, baseband)
// pair was synthesised in the same drift epoch; the replay impairs to
// the same capture a fresh synthesis would. Distinct PreparedReceive
// values with distinct arenas are safe concurrently; a second call on
// one value returns an error, since the receive hands its noise stream
// back for a later fork to reseed.
func (f *FrontEnd) ReceivePreparedArena(p *PreparedReceive, baseband []complex128, ar *pool.Arena) ([][]complex128, error) {
	if len(baseband) != p.n {
		return nil, errors.New("radio: baseband length differs from prepared length")
	}
	if p.noise == nil {
		return nil, errors.New("radio: prepared receive already consumed")
	}
	epoch := p.resp.epoch
	key := cleanKey{x: p.tx.X, y: p.tx.Y, n: p.n, hash: basebandHash(baseband)}
	f.mu.Lock()
	ce, ok := f.cleanCache[key]
	f.mu.Unlock()
	var out [][]complex128
	if ok && ce.epoch == epoch {
		out = f.replayClean(ce, ar)
	} else {
		out = f.synthesize(p.resp, baseband, ar)
		f.storeClean(key, epoch, out)
	}
	f.impair(out, p.noise)
	p.noise.Release()
	p.noise = nil
	return out, nil
}

// channelResponse returns the cached frequency-domain channel for (tx, n),
// rebuilding it when the environment's drift epoch has moved on.
func (f *FrontEnd) channelResponse(e *env.Environment, tx geom.Point, n int) (*chanResponse, error) {
	epoch := e.Epoch()
	key := chanKey{x: tx.X, y: tx.Y, n: n}
	f.mu.Lock()
	if r, ok := f.chanCache[key]; ok && r.epoch == epoch {
		f.mu.Unlock()
		return r, nil
	}
	f.mu.Unlock()

	paths := e.Trace(tx, f.Pos)
	if len(paths) == 0 {
		return nil, ErrBlocked
	}
	m := dsp.NextPow2(n)
	r := &chanResponse{epoch: epoch, fft: dsp.NewPow2(m), m: m, h: f.buildResponse(paths, m)}
	for _, ha := range r.h {
		r.fft.BitReverse(ha)
	}

	f.mu.Lock()
	if f.chanCache == nil {
		f.chanCache = make(map[chanKey]*chanResponse)
	}
	if len(f.chanCache) >= maxChanCacheEntries {
		clear(f.chanCache)
	}
	f.chanCache[key] = r
	f.mu.Unlock()
	return r, nil
}

// buildResponse accumulates every path's delay ramp and steering phase
// into one per-antenna frequency response at the pow2 transform length m,
// folding in the inverse transform's normalisation:
// H_a[k] = (1/m) * sum over paths of gain * steer_a * exp(-i 2 pi f_k delay).
func (f *FrontEnd) buildResponse(paths []env.Path, m int) [][]complex128 {
	nAnt := f.Array.N()
	h := make([][]complex128, nAnt)
	for a := range h {
		h[a] = make([]complex128, m)
	}
	freqs := dsp.FFTFreqs(m, f.SampleRate)
	ramp := make([]complex128, m)
	for _, p := range paths {
		for k, fr := range freqs {
			ramp[k] = p.Gain * cmplx.Rect(1, -2*math.Pi*fr*p.Delay)
		}
		steer := f.Array.Steering(p.BearingDeg)
		for a := 0; a < nAnt; a++ {
			s := steer[a]
			dst := h[a]
			for k, v := range ramp {
				dst[k] += v * s
			}
		}
	}
	inv := 1 / float64(m) // a power of two: the scaling is exact
	for _, ha := range h {
		for k, v := range ha {
			ha[k] = complex(real(v)*inv, imag(v)*inv)
		}
	}
	return h
}

// synthesize applies a channel response to the baseband: the baseband is
// zero-padded to the response's pow2 length m (the transmit buffer's own
// lead/tail padding keeps the fractionally-delayed copies inside the
// first n samples, so truncating back to n loses nothing but the pad),
// one forward FFT whose spectrum is bit-reversed once, then per antenna
// one fused pass that multiplies by the (already 1/m-scaled,
// bit-reversed) response and runs the inverse butterflies —
// allocation-free given an arena. Pure function of its inputs; safe for
// concurrent use with distinct arenas.
func (f *FrontEnd) synthesize(resp *chanResponse, baseband []complex128, ar *pool.Arena) [][]complex128 {
	n := len(baseband)
	m := resp.m
	spec := arenaComplexUninit(ar, m)
	copy(spec, baseband)
	for k := n; k < m; k++ {
		spec[k] = 0
	}
	resp.fft.FFTInPlace(spec)
	resp.fft.BitReverse(spec)
	out := arenaStreams(ar, len(resp.h))
	for a, ha := range resp.h {
		stream := arenaComplexUninit(ar, m)
		resp.fft.MulIFFTInto(stream, spec, ha)
		out[a] = stream[:n]
	}
	return out
}

// impairChunk is how many samples impair draws the noise of at a time,
// into a stack buffer that stays in L1.
const impairChunk = 256

// impair applies the receiver impairments to clean streams in place, in
// the fixed order the hardware imposes — per-chain downconverter phase,
// common CFO, additive noise from src, optional quantisation — in one
// pass per antenna. Each product goes through an explicit complex128
// conversion, which rounds it exactly as a separate pass storing it
// would: no architecture may fuse it with the noise add into a
// multiply-add, so the capture is the same on every GOARCH.
func (f *FrontEnd) impair(out [][]complex128, src *rng.Source) {
	floor := f.NoiseFloor > 0
	sigma2, fullScale := f.NoiseFloor, 0.0
	if !floor || f.QuantBits > 0 {
		// Mean signal power across chains sets the noise variance, unless
		// an absolute floor is configured, and the quantiser's range.
		var sp float64
		for _, x := range out {
			sp += dsp.Power(x)
		}
		sp /= float64(len(out))
		if !floor {
			sigma2 = sp / dsp.FromDB(f.SNRdB)
		}
		fullScale = 4 * math.Sqrt(sp+sigma2)
	}
	std := math.Sqrt(sigma2 / 2)
	cfo, cfoStep := f.CFOHz != 0, 2*math.Pi*f.CFOHz/f.SampleRate
	quant := f.QuantBits > 0 && fullScale > 0
	var qStep float64
	if quant {
		qStep = fullScale / float64(int(1)<<uint(f.QuantBits-1)) // 2^(b-1) levels per sign
	}
	var noise [2 * impairChunk]float64
	for a, x := range out {
		// Downconverter phase offset (the impairment of section 2.2).
		rot := cmplx.Rect(1, f.PhaseOffsets[a])
		for lo := 0; lo < len(x); lo += impairChunk {
			c := x[lo:min(lo+impairChunk, len(x))]
			v := noise[:2*len(c)]
			src.Normals(v)
			for i, s := range c {
				s = complex128(s * rot)
				if cfo {
					// Common CFO, identical on all chains (shared
					// oscillators), from start phase 0.
					s = complex128(s * cmplx.Rect(1, 0+cfoStep*float64(lo+i)))
				}
				s += complex(std*v[2*i], std*v[2*i+1])
				if quant {
					s = complex(quantize(real(s), fullScale, qStep), quantize(imag(s), fullScale, qStep))
				}
				c[i] = s
			}
		}
	}
}

// Transmission is one concurrent transmitter for ReceiveMulti.
type Transmission struct {
	Pos geom.Point
	// Baseband is the transmitted samples (already padded).
	Baseband []complex128
	// SampleOffset delays this transmitter's start within the capture
	// window (collisions and partial overlaps).
	SampleOffset int
	// Power scales the transmit amplitude (1 = unit power).
	Power float64
}

// ReceiveMulti simulates several transmitters on the air at once — the
// interference scenario section 3 of the paper worries about ("background
// noise and interference from other senders"). The capture window spans
// the longest transmission; each transmitter's signal propagates through
// its own multipath channel (synthesised as Receive synthesises one), the
// superposition arrives at every antenna, and the impairments apply once,
// with noise from a fork of the front end's stream.
func (f *FrontEnd) ReceiveMulti(e *env.Environment, txs []Transmission) ([][]complex128, error) {
	if len(txs) == 0 {
		return nil, errors.New("radio: no transmissions")
	}
	winLen := 0
	for _, tx := range txs {
		if len(tx.Baseband) == 0 {
			return nil, errors.New("radio: empty baseband")
		}
		if tx.SampleOffset < 0 {
			return nil, errors.New("radio: negative sample offset")
		}
		if n := tx.SampleOffset + len(tx.Baseband); n > winLen {
			winLen = n
		}
	}
	out := make([][]complex128, f.Array.N())
	for a := range out {
		out[a] = make([]complex128, winLen)
	}

	heard := false
	for _, tx := range txs {
		resp, err := f.channelResponse(e, tx.Pos, len(tx.Baseband))
		if err != nil {
			continue // this transmitter is fully blocked
		}
		heard = true
		amp := math.Sqrt(math.Max(tx.Power, 0))
		if tx.Power == 0 {
			amp = 1
		}
		for a, s := range f.synthesize(resp, tx.Baseband, nil) {
			dst := out[a][tx.SampleOffset:]
			for i, v := range s {
				dst[i] += complex(real(v)*amp, imag(v)*amp)
			}
		}
	}
	if !heard {
		return nil, fmt.Errorf("%w (all transmitters)", ErrBlocked)
	}
	src := f.forkNoise()
	f.impair(out, src)
	src.Release()
	return out, nil
}

// quantize rounds v to the nearest multiple of step after clipping it to
// [-fullScale, fullScale]: one ADC rail.
func quantize(v, fullScale, step float64) float64 {
	v = math.Max(-fullScale, math.Min(fullScale, v))
	return math.Round(v/step) * step
}

// --- Calibration (section 2.2) ---

// CalibrationCapture simulates switching every front-end input from its
// antenna to the splitter fed by the reference source: each chain receives
// the same continuous carrier over an equal-length path, so the only
// phase differences between chains are the downconverter offsets (plus
// noise). n is the number of samples captured per chain.
func (f *FrontEnd) CalibrationCapture(n int) [][]complex128 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]complex128, f.Array.N())
	// Reference tone at a small baseband offset (a pure DC tone would
	// stress quantisers unrealistically; any common tone works since
	// offsets are estimated chain-relative).
	const toneHz = 312.5e3 // one OFDM subcarrier spacing
	sigma2 := 1 / dsp.FromDB(f.SNRdB+20)
	for a := range out {
		tone := make([]complex128, n)
		for i := range tone {
			tone[i] = cmplx.Rect(1, 2*math.Pi*toneHz*float64(i)/f.SampleRate)
		}
		dsp.Scale(tone, cmplx.Rect(1, f.PhaseOffsets[a]))
		// Cabled capture: much cleaner than over-the-air (36 dB attenuator
		// feeding directly into the front end), hence SNR + 20 dB.
		f.noise.AddAWGN(tone, sigma2)
		out[a] = tone
	}
	return out
}

// EstimateOffsets recovers each chain's phase offset relative to chain 0
// from a calibration capture: the paper's "seven relative phase offsets
// for antennas 2-8, relative to antenna one". Averaging the per-sample
// conjugate products rejects the capture noise.
func EstimateOffsets(capture [][]complex128) []float64 {
	out := make([]float64, len(capture))
	if len(capture) == 0 {
		return out
	}
	ref := capture[0]
	for a := 1; a < len(capture); a++ {
		var acc complex128
		for i := range ref {
			acc += capture[a][i] * cmplx.Conj(ref[i])
		}
		out[a] = cmplx.Phase(acc)
	}
	return out
}

// ApplyCalibration subtracts the estimated relative offsets from
// per-antenna streams in place, cancelling the downconverter phases so
// the steering model of section 2.1 applies.
func ApplyCalibration(streams [][]complex128, offsets []float64) {
	for a := range streams {
		if a >= len(offsets) {
			break
		}
		rot := cmplx.Rect(1, -offsets[a])
		dsp.Scale(streams[a], rot)
	}
}

// Calibrate runs the full section 2.2 procedure: capture, estimate,
// return the offsets to apply to subsequent over-the-air captures.
func (f *FrontEnd) Calibrate(nSamples int) []float64 {
	return EstimateOffsets(f.CalibrationCapture(nSamples))
}
