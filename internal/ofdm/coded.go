package ofdm

import (
	"errors"

	"secureangle/internal/fec"
	"secureangle/internal/wifi"
)

// Coded transmission: the full 802.11a bit pipeline — scramble,
// convolutional encode (rate 1/2), per-symbol interleave, map — and its
// inverse. This is what real traffic through the testbed looks like; the
// AoA pipeline itself never needs the bits, but end-to-end experiments
// (e.g. "does the fence actually stop the payload?") do.

// scramblerSeed is the fixed seed both ends use (a real transmitter sends
// the seed in the SERVICE field; the simulation fixes it).
const scramblerSeed = 0x5d

// BuildCodedPacket builds a packet whose payload bits are scrambled,
// rate-1/2 convolutionally coded, and block-interleaved per OFDM symbol.
func (mod *Modulator) BuildCodedPacket(payload []byte, m Modulation) (*Packet, error) {
	bits := BytesToBits(payload)
	wifi.NewScrambler(scramblerSeed).Apply(bits)
	coded := fec.Encode(bits)

	ncbps := len(mod.lay.data) * m.BitsPerSymbol()
	for len(coded)%ncbps != 0 {
		coded = append(coded, 0)
	}
	il, err := fec.NewInterleaver(ncbps, m.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	nsym := len(coded) / ncbps
	txBits := make([]byte, 0, len(coded))
	for s := 0; s < nsym; s++ {
		symBits, err := il.Interleave(coded[s*ncbps : (s+1)*ncbps])
		if err != nil {
			return nil, err
		}
		txBits = append(txBits, symBits...)
	}
	return &Packet{Samples: mod.modulate(txBits, m, 0, 0), NSymbols: nsym, Mod: m, PayloadBits: txBits}, nil
}

// ErrCodedLength reports a coded payload whose length cannot be decoded.
var ErrCodedLength = errors.New("ofdm: coded payload length mismatch")

// DemodulateCoded reverses BuildCodedPacket: demodulate, deinterleave,
// Viterbi-decode, descramble, and return payloadLen bytes.
func (dem *Demodulator) DemodulateCoded(rx []complex128, nsym int, m Modulation, payloadLen int) ([]byte, error) {
	raw, err := dem.Demodulate(rx, nsym, m)
	if err != nil {
		return nil, err
	}
	ncbps := len(dem.P.DataCarriers()) * m.BitsPerSymbol()
	il, err := fec.NewInterleaver(ncbps, m.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	coded := make([]byte, 0, len(raw))
	for s := 0; s*ncbps < len(raw); s++ {
		symBits, err := il.Deinterleave(raw[s*ncbps : (s+1)*ncbps])
		if err != nil {
			return nil, err
		}
		coded = append(coded, symBits...)
	}
	// The encoder emitted 2*(8*payloadLen + 6) coded bits, padded to the
	// symbol boundary with zeros; trim before decoding.
	need := 2 * (8*payloadLen + fec.K - 1)
	if len(coded) < need {
		return nil, ErrCodedLength
	}
	bits, err := fec.Decode(coded[:need])
	if err != nil {
		return nil, err
	}
	wifi.NewScrambler(scramblerSeed).Apply(bits)
	return BitsToBytes(bits)
}
