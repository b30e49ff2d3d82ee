// Package ofdm implements an 802.11a/g-style OFDM physical layer at
// 20 MHz: 64-point FFT symbols with a 16-sample cyclic prefix, 48 data and
// 4 pilot subcarriers, BPSK through 64-QAM constellations, and a
// Schmidl-Cox-compatible preamble (a training symbol built from
// even-indexed subcarriers so its time-domain form is two identical
// halves, followed by a long training symbol for channel estimation).
//
// SecureAngle does not demodulate payloads to compute AoA — it only needs
// real OFDM waveforms and packet timing — but the full modulator and
// demodulator are implemented so the testbed traffic is genuine and
// end-to-end verifiable.
package ofdm

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"secureangle/internal/dsp"
)

// Params fixes the OFDM numerology.
type Params struct {
	NFFT       int     // FFT size (64)
	CP         int     // cyclic prefix samples (16)
	SampleRate float64 // Hz (20e6)
}

// DefaultParams returns the 802.11a/g 20 MHz numerology.
func DefaultParams() Params {
	return Params{NFFT: 64, CP: 16, SampleRate: 20e6}
}

// SymbolLen returns the samples per OFDM symbol including CP.
func (p Params) SymbolLen() int { return p.NFFT + p.CP }

// DataCarriers returns the 48 data subcarrier indices (FFT bin order) of
// 802.11a: +-1..26 minus the pilots at +-7 and +-21.
func (p Params) DataCarriers() []int {
	var out []int
	for k := -26; k <= 26; k++ {
		switch k {
		case 0, 7, -7, 21, -21:
			continue
		}
		out = append(out, (k+p.NFFT)%p.NFFT)
	}
	return out
}

// PilotCarriers returns the four 802.11a pilot bins.
func (p Params) PilotCarriers() []int {
	n := p.NFFT
	return []int{(7 + n) % n, (21 + n) % n, (-7 + n) % n, (-21 + n) % n}
}

// pilotValues are the fixed BPSK pilot symbols (sign pattern of 802.11a's
// first data symbol; polarity scrambling is omitted since the receiver
// here is ours).
var pilotValues = []complex128{1, 1, 1, -1}

// Modulation selects the data constellation.
type Modulation int

const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BitsPerSymbol returns the bits carried per constellation point.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		panic("ofdm: unknown modulation")
	}
}

// mapQAMAxis gray-maps b bits to a PAM level, normalised later.
func mapPAM(bits []byte) float64 {
	// Gray mapping for 1, 2 or 3 bits per axis: 802.11a table.
	switch len(bits) {
	case 1:
		return float64(2*int(bits[0]) - 1) // 0->-1, 1->+1
	case 2:
		// Gray: 00->-3 01->-1 11->+1 10->+3
		v := bits[0]<<1 | bits[1]
		return []float64{-3, -1, 3, 1}[v]
	case 3:
		v := bits[0]<<2 | bits[1]<<1 | bits[2]
		return []float64{-7, -5, -1, -3, 7, 5, 1, 3}[v]
	default:
		panic("ofdm: unsupported PAM width")
	}
}

func demapPAM(v float64, nbits int) []byte {
	// Slice to the nearest level and invert the gray map.
	switch nbits {
	case 1:
		if v >= 0 {
			return []byte{1}
		}
		return []byte{0}
	case 2:
		levels := []float64{-3, -1, 3, 1}
		codes := [][]byte{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
		return codes[nearest(levels, v)]
	case 3:
		levels := []float64{-7, -5, -1, -3, 7, 5, 1, 3}
		codes := [][]byte{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1}, {1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1}}
		return codes[nearest(levels, v)]
	default:
		panic("ofdm: unsupported PAM width")
	}
}

func nearest(levels []float64, v float64) int {
	best, bd := 0, math.Inf(1)
	for i, l := range levels {
		if d := math.Abs(v - l); d < bd {
			best, bd = i, d
		}
	}
	return best
}

// normFactor returns the constellation normalisation so average symbol
// energy is 1 (802.11a Kmod).
func normFactor(m Modulation) float64 {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return math.Sqrt2
	case QAM16:
		return math.Sqrt(10)
	case QAM64:
		return math.Sqrt(42)
	default:
		panic("ofdm: unknown modulation")
	}
}

// MapBits maps a bit slice (one bit per byte, values 0/1) to constellation
// points. The bit count must be a multiple of BitsPerSymbol.
func MapBits(bits []byte, m Modulation) ([]complex128, error) {
	bps := m.BitsPerSymbol()
	if len(bits)%bps != 0 {
		return nil, fmt.Errorf("ofdm: %d bits not divisible by %d", len(bits), bps)
	}
	out := make([]complex128, len(bits)/bps)
	mapInto(out, bits, m)
	return out, nil
}

// mapInto maps bits onto len(dst) constellation points, BitsPerSymbol
// bits each.
func mapInto(dst []complex128, bits []byte, m Modulation) {
	bps := m.BitsPerSymbol()
	norm := normFactor(m)
	for j := range dst {
		chunk := bits[j*bps : (j+1)*bps]
		var re, im float64
		switch m {
		case BPSK:
			re = mapPAM(chunk[:1])
			im = 0
		default:
			half := bps / 2
			re = mapPAM(chunk[:half])
			im = mapPAM(chunk[half:])
		}
		dst[j] = complex(re/norm, im/norm)
	}
}

// DemapSymbols hard-decides constellation points back to bits.
func DemapSymbols(syms []complex128, m Modulation) []byte {
	bps := m.BitsPerSymbol()
	norm := normFactor(m)
	out := make([]byte, 0, len(syms)*bps)
	for _, s := range syms {
		re := real(s) * norm
		im := imag(s) * norm
		switch m {
		case BPSK:
			out = append(out, demapPAM(re, 1)...)
		default:
			half := bps / 2
			out = append(out, demapPAM(re, half)...)
			out = append(out, demapPAM(im, half)...)
		}
	}
	return out
}

// BytesToBits expands bytes to one-bit-per-byte (MSB first).
func BytesToBits(b []byte) []byte { return appendBits(make([]byte, 0, len(b)*8), b) }

// appendBits appends b to dst one bit per byte, MSB first.
func appendBits(dst, b []byte) []byte {
	for _, v := range b {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (v>>uint(i))&1)
		}
	}
	return dst
}

// BitsToBytes packs bits (MSB first) into bytes; len(bits) must be a
// multiple of 8.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, errors.New("ofdm: bit count not a multiple of 8")
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b > 1 {
			return nil, errors.New("ofdm: bit values must be 0 or 1")
		}
		out[i/8] |= b << uint(7-i%8)
	}
	return out, nil
}

// Modulator builds OFDM waveforms. Make one with NewModulator and do
// not change P afterwards: the modulator resolves P's layout once.
type Modulator struct {
	P Params
	// lay is P's layout, resolved by NewModulator.
	lay *layout
}

// layout is what every packet of one numerology shares: the preamble
// and the data and pilot carrier bins.
type layout struct {
	preamble     []complex128
	data, pilots []int
}

// NewModulator returns a modulator with the given numerology, its
// preamble and carrier lists resolved once for every packet it builds.
func NewModulator(p Params) *Modulator {
	mod := &Modulator{P: p}
	mod.lay = mod.resolve()
	return mod
}

// resolve builds P's layout: two short-training OFDM symbols (each 80
// samples with CP, halves identical within the 64-sample core) followed
// by one long-training symbol, and the carrier bins.
func (mod *Modulator) resolve() *layout {
	symLen := mod.P.SymbolLen()
	pre := make([]complex128, 3*symLen)
	mod.symbolFromFreq(pre[:symLen], mod.shortTrainingFreq())
	copy(pre[symLen:], pre[:symLen])
	mod.symbolFromFreq(pre[2*symLen:], mod.longTrainingFreq())
	return &layout{preamble: pre, data: mod.P.DataCarriers(), pilots: mod.P.PilotCarriers()}
}

// shortTrainingFreq puts QPSK energy on every 4th subcarrier (802.11a STF
// layout), making the 64-sample time symbol consist of four identical
// 16-sample quarters — and therefore also two identical 32-sample halves,
// which is exactly the structure the Schmidl-Cox detector correlates on.
func (mod *Modulator) shortTrainingFreq() []complex128 {
	n := mod.P.NFFT
	f := make([]complex128, n)
	s := complex(math.Sqrt(13.0/6.0), 0)
	set := func(k int, v complex128) { f[(k+n)%n] = v * s }
	// 802.11a S_-26..26 nonzero entries.
	pos := map[int]complex128{
		-24: 1 + 1i, -20: -1 - 1i, -16: 1 + 1i, -12: -1 - 1i, -8: -1 - 1i, -4: 1 + 1i,
		4: -1 - 1i, 8: -1 - 1i, 12: 1 + 1i, 16: 1 + 1i, 20: 1 + 1i, 24: 1 + 1i,
	}
	for k, v := range pos {
		set(k, v)
	}
	return f
}

// longTrainingFreq is the 802.11a LTF: BPSK +-1 on all 52 occupied bins.
func (mod *Modulator) longTrainingFreq() []complex128 {
	n := mod.P.NFFT
	f := make([]complex128, n)
	seq := []int{ // L_-26..L_26 from the standard (0 at DC)
		1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
		0,
		1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
	}
	for i, v := range seq {
		k := i - 26
		f[(k+n)%n] = complex(float64(v), 0)
	}
	return f
}

// Preamble returns (a copy of) the packet preamble: two short-training
// OFDM symbols (each 80 samples with CP, halves identical within the
// 64-sample core) followed by one long-training symbol. Total 240
// samples.
func (mod *Modulator) Preamble() []complex128 {
	return append([]complex128(nil), mod.lay.preamble...)
}

// LongTrainingRef returns the frequency-domain LTF reference for channel
// estimation.
func (mod *Modulator) LongTrainingRef() []complex128 { return mod.longTrainingFreq() }

// symbolFromFreq writes the time-domain form of the frequency-domain
// symbol f, cyclic prefix first, into dst (SymbolLen samples).
func (mod *Modulator) symbolFromFreq(dst, f []complex128) {
	copy(dst[mod.P.CP:], f)
	mod.timeDomain(dst)
}

// timeDomain turns the frequency-domain symbol held in dst[CP:] into
// time domain in place and fills the cyclic prefix dst[:CP] from its
// tail.
func (mod *Modulator) timeDomain(dst []complex128) {
	t := dst[mod.P.CP:]
	dsp.IFFTInPlace(t)
	// Scale so symbol power is independent of FFT size convention.
	dsp.Scale(t, complex(math.Sqrt(float64(mod.P.NFFT)), 0))
	copy(dst[:mod.P.CP], t[mod.P.NFFT-mod.P.CP:])
}

// dataSymbol writes the data OFDM symbol carrying pts (one point per
// data carrier) into dst (SymbolLen samples, zero on entry): the points
// and the pilots on their carriers, then the time-domain transform.
func (mod *Modulator) dataSymbol(dst, pts []complex128) {
	f := dst[mod.P.CP:]
	for i, k := range mod.lay.data {
		f[k] = pts[i]
	}
	for i, k := range mod.lay.pilots {
		f[k] = pilotValues[i]
	}
	mod.timeDomain(dst)
}

// ModulateSymbol builds one data OFDM symbol from exactly
// len(DataCarriers()) constellation points.
func (mod *Modulator) ModulateSymbol(data []complex128) ([]complex128, error) {
	if len(data) != len(mod.lay.data) {
		return nil, fmt.Errorf("ofdm: symbol needs %d points, got %d", len(mod.lay.data), len(data))
	}
	out := make([]complex128, mod.P.SymbolLen())
	mod.dataSymbol(out, data)
	return out, nil
}

// Packet is a fully-built OFDM packet.
type Packet struct {
	Samples  []complex128
	NSymbols int
	Mod      Modulation
	// PayloadBits is the padded bit stream carried by the data symbols.
	PayloadBits []byte
}

// BuildPacket maps payload bytes onto OFDM data symbols (zero-padding the
// final symbol) and concatenates preamble + data symbols.
func (mod *Modulator) BuildPacket(payload []byte, m Modulation) (*Packet, error) {
	bits, nsym := mod.payloadBits(payload, m)
	return &Packet{Samples: mod.modulate(bits, m, 0, 0), NSymbols: nsym, Mod: m, PayloadBits: bits}, nil
}

// BuildPadded returns BuildPacket's samples between lead and tail
// zeros, modulated in place in that one slice: a channel simulation's
// transmit buffer (see radio.FrontEnd.Receive).
func (mod *Modulator) BuildPadded(payload []byte, m Modulation, lead, tail int) []complex128 {
	bits, _ := mod.payloadBits(payload, m)
	return mod.modulate(bits, m, lead, tail)
}

// payloadBits returns payload's bits zero-padded to a whole number of
// data symbols, and that number.
func (mod *Modulator) payloadBits(payload []byte, m Modulation) ([]byte, int) {
	perSym := len(mod.lay.data) * m.BitsPerSymbol()
	nsym := (8*len(payload) + perSym - 1) / perSym
	return appendBits(make([]byte, 0, nsym*perSym), payload)[:nsym*perSym], nsym
}

// modulate returns a packet's samples between lead and tail zeros: the
// preamble, then one data symbol per len(lay.data)*BitsPerSymbol bits
// of bits (a whole number of symbols), each modulated in place in the
// returned slice.
func (mod *Modulator) modulate(bits []byte, m Modulation, lead, tail int) []complex128 {
	lay := mod.lay
	symLen := mod.P.SymbolLen()
	perSym := len(lay.data) * m.BitsPerSymbol()
	nsym := len(bits) / perSym
	samples := make([]complex128, lead+len(lay.preamble)+nsym*symLen+tail)
	pkt := samples[lead:]
	copy(pkt, lay.preamble)
	pts := make([]complex128, len(lay.data))
	for s := 0; s < nsym; s++ {
		mapInto(pts, bits[s*perSym:(s+1)*perSym], m)
		mod.dataSymbol(pkt[len(lay.preamble)+s*symLen:][:symLen], pts)
	}
	return samples
}

// Demodulator recovers bits from a received packet (single antenna).
type Demodulator struct {
	P Params
}

// NewDemodulator returns a demodulator for the numerology.
func NewDemodulator(p Params) *Demodulator { return &Demodulator{P: p} }

// Demodulate takes samples beginning exactly at the packet start (output
// of the detector), estimates the channel from the long training symbol,
// equalises each data symbol, and returns the recovered bits of nsym data
// symbols.
func (dem *Demodulator) Demodulate(rx []complex128, nsym int, m Modulation) ([]byte, error) {
	p := dem.P
	symLen := p.SymbolLen()
	need := 3*symLen + nsym*symLen
	if len(rx) < need {
		return nil, fmt.Errorf("ofdm: need %d samples, have %d", need, len(rx))
	}
	mod := NewModulator(p)
	ref := mod.LongTrainingRef()

	// Channel estimate from the LTF (third preamble symbol).
	ltStart := 2*symLen + p.CP
	lt := dsp.FFT(rx[ltStart : ltStart+p.NFFT])
	scale := complex(1/math.Sqrt(float64(p.NFFT)), 0)
	h := make([]complex128, p.NFFT)
	for k := range h {
		if ref[k] != 0 {
			h[k] = lt[k] * scale / ref[k]
		}
	}

	dc := p.DataCarriers()
	var bits []byte
	for s := 0; s < nsym; s++ {
		start := 3*symLen + s*symLen + p.CP
		f := dsp.FFT(rx[start : start+p.NFFT])
		// Residual common phase from the pilots.
		var pilotRot complex128
		for i, k := range p.PilotCarriers() {
			if h[k] != 0 {
				pilotRot += (f[k] * scale / h[k]) * cmplx.Conj(pilotValues[i])
			}
		}
		if pilotRot != 0 {
			pilotRot /= complex(cmplx.Abs(pilotRot), 0)
		} else {
			pilotRot = 1
		}
		pts := make([]complex128, len(dc))
		for i, k := range dc {
			if h[k] == 0 {
				continue
			}
			pts[i] = f[k] * scale / h[k] / pilotRot
		}
		bits = append(bits, DemapSymbols(pts, m)...)
	}
	return bits, nil
}
