package ofdm

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"secureangle/internal/dsp"
)

func TestParams(t *testing.T) {
	p := DefaultParams()
	if p.NFFT != 64 || p.CP != 16 || p.SampleRate != 20e6 {
		t.Fatalf("DefaultParams = %+v", p)
	}
	if p.SymbolLen() != 80 {
		t.Errorf("SymbolLen = %d", p.SymbolLen())
	}
	if len(p.DataCarriers()) != 48 {
		t.Errorf("data carriers = %d, want 48", len(p.DataCarriers()))
	}
	if len(p.PilotCarriers()) != 4 {
		t.Errorf("pilot carriers = %d", len(p.PilotCarriers()))
	}
	// No overlap between data and pilots; no DC.
	seen := map[int]bool{0: true}
	for _, k := range p.PilotCarriers() {
		seen[k] = true
	}
	for _, k := range p.DataCarriers() {
		if seen[k] {
			t.Errorf("carrier %d reused", k)
		}
	}
}

func TestModulationMeta(t *testing.T) {
	cases := []struct {
		m    Modulation
		bits int
		name string
	}{
		{BPSK, 1, "BPSK"}, {QPSK, 2, "QPSK"}, {QAM16, 4, "16-QAM"}, {QAM64, 6, "64-QAM"},
	}
	for _, c := range cases {
		if c.m.BitsPerSymbol() != c.bits {
			t.Errorf("%v bits = %d", c.m, c.m.BitsPerSymbol())
		}
		if c.m.String() != c.name {
			t.Errorf("%v name = %s", c.m, c.m.String())
		}
	}
}

func TestMapDemapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		bits := make([]byte, 48*m.BitsPerSymbol())
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		syms, err := MapBits(bits, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		back := DemapSymbols(syms, m)
		if !bytes.Equal(back, bits) {
			t.Fatalf("%v: bits did not round-trip", m)
		}
	}
}

func TestMapBitsUnitAveragePower(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		bits := make([]byte, 6000*m.BitsPerSymbol())
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		syms, _ := MapBits(bits, m)
		var p float64
		for _, s := range syms {
			p += real(s)*real(s) + imag(s)*imag(s)
		}
		p /= float64(len(syms))
		if math.Abs(p-1) > 0.05 {
			t.Errorf("%v average power = %v, want ~1", m, p)
		}
	}
}

func TestMapBitsRejectsBadLength(t *testing.T) {
	if _, err := MapBits([]byte{1, 0, 1}, QPSK); err == nil {
		t.Error("odd bit count accepted for QPSK")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		back, err := BitsToBytes(BytesToBits(data))
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if _, err := BitsToBytes([]byte{1, 0, 1}); err == nil {
		t.Error("non-multiple-of-8 accepted")
	}
	if _, err := BitsToBytes([]byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func TestPreambleStructure(t *testing.T) {
	mod := NewModulator(DefaultParams())
	pre := mod.Preamble()
	if len(pre) != 240 {
		t.Fatalf("preamble length = %d, want 240", len(pre))
	}
	// The STF core (after CP) must have two identical 32-sample halves —
	// the property Schmidl-Cox detection relies on.
	core := pre[16:80]
	for i := 0; i < 32; i++ {
		if cmplx.Abs(core[i]-core[i+32]) > 1e-9 {
			t.Fatalf("STF halves differ at %d", i)
		}
	}
	// And four identical quarters (802.11a structure).
	for i := 0; i < 16; i++ {
		for q := 1; q < 4; q++ {
			if cmplx.Abs(core[i]-core[i+16*q]) > 1e-9 {
				t.Fatalf("STF quarters differ at %d/%d", i, q)
			}
		}
	}
	// Second STF symbol identical to the first.
	for i := 0; i < 80; i++ {
		if cmplx.Abs(pre[i]-pre[80+i]) > 1e-9 {
			t.Fatal("STF symbols 1 and 2 differ")
		}
	}
}

func TestCyclicPrefix(t *testing.T) {
	mod := NewModulator(DefaultParams())
	pts := make([]complex128, 48)
	for i := range pts {
		pts[i] = 1
	}
	sym, err := mod.ModulateSymbol(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sym) != 80 {
		t.Fatalf("symbol length = %d", len(sym))
	}
	// CP must replicate the symbol tail.
	for i := 0; i < 16; i++ {
		if cmplx.Abs(sym[i]-sym[64+i]) > 1e-12 {
			t.Fatalf("CP mismatch at %d", i)
		}
	}
}

func TestModulateSymbolRejectsWrongCount(t *testing.T) {
	mod := NewModulator(DefaultParams())
	if _, err := mod.ModulateSymbol(make([]complex128, 47)); err == nil {
		t.Error("wrong point count accepted")
	}
}

func TestBuildPacketShape(t *testing.T) {
	mod := NewModulator(DefaultParams())
	payload := bytes.Repeat([]byte{0xA5}, 100)
	pkt, err := mod.BuildPacket(payload, QPSK)
	if err != nil {
		t.Fatal(err)
	}
	// 100 bytes = 800 bits; QPSK carries 96 bits/symbol -> 9 symbols
	// (864 bits with padding).
	if pkt.NSymbols != 9 {
		t.Errorf("NSymbols = %d, want 9", pkt.NSymbols)
	}
	want := 240 + 9*80
	if len(pkt.Samples) != want {
		t.Errorf("samples = %d, want %d", len(pkt.Samples), want)
	}
}

// TestBuildPadded: the padded build is BuildPacket's samples, bit for
// bit, between exactly lead and tail zeros.
func TestBuildPadded(t *testing.T) {
	mod := NewModulator(DefaultParams())
	payload := bytes.Repeat([]byte{0x3C}, 37)
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		pkt, err := mod.BuildPacket(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		got := mod.BuildPadded(payload, m, 3, 4)
		if len(got) != 3+len(pkt.Samples)+4 {
			t.Fatalf("%v: %d samples, want %d", m, len(got), 3+len(pkt.Samples)+4)
		}
		for i, v := range got {
			want := complex128(0)
			if i >= 3 && i < 3+len(pkt.Samples) {
				want = pkt.Samples[i-3]
			}
			if v != want {
				t.Fatalf("%v: sample %d = %v, want %v", m, i, v, want)
			}
		}
	}
}

func TestModulateDemodulateCleanChannel(t *testing.T) {
	mod := NewModulator(DefaultParams())
	dem := NewDemodulator(DefaultParams())
	rng := rand.New(rand.NewSource(3))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		payload := make([]byte, 60)
		rng.Read(payload)
		pkt, err := mod.BuildPacket(payload, m)
		if err != nil {
			t.Fatal(err)
		}
		bits, err := dem.Demodulate(pkt.Samples, pkt.NSymbols, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bits, pkt.PayloadBits) {
			t.Errorf("%v: clean-channel demod failed", m)
		}
	}
}

func TestDemodulateThroughFlatChannel(t *testing.T) {
	// A complex gain and integer delay should be fully equalised.
	mod := NewModulator(DefaultParams())
	dem := NewDemodulator(DefaultParams())
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, 96)
	rng.Read(payload)
	pkt, _ := mod.BuildPacket(payload, QAM16)

	rx := make([]complex128, len(pkt.Samples))
	g := cmplx.Rect(0.3, 1.234)
	for i, s := range pkt.Samples {
		rx[i] = s * g
	}
	bits, err := dem.Demodulate(rx, pkt.NSymbols, QAM16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bits, pkt.PayloadBits) {
		t.Error("flat-channel demod failed")
	}
}

func TestDemodulateThroughMultipathChannel(t *testing.T) {
	// Two-tap channel within the CP must be equalised by the
	// frequency-domain single-tap equaliser.
	mod := NewModulator(DefaultParams())
	dem := NewDemodulator(DefaultParams())
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 96)
	rng.Read(payload)
	pkt, _ := mod.BuildPacket(payload, QPSK)

	h := []complex128{1, 0, 0, 0.4i, 0, 0.2}
	rx := dsp.Convolve(pkt.Samples, h)[:len(pkt.Samples)]
	bits, err := dem.Demodulate(rx, pkt.NSymbols, QPSK)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bits, pkt.PayloadBits) {
		t.Error("multipath demod failed")
	}
}

func TestDemodulateWithNoise(t *testing.T) {
	mod := NewModulator(DefaultParams())
	dem := NewDemodulator(DefaultParams())
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, 96)
	rng.Read(payload)
	pkt, _ := mod.BuildPacket(payload, BPSK)

	rx := make([]complex128, len(pkt.Samples))
	copy(rx, pkt.Samples)
	// ~20 dB SNR: sigma^2 = signal power / 100.
	sp := dsp.Power(pkt.Samples)
	std := math.Sqrt(sp / 100 / 2)
	for i := range rx {
		rx[i] += complex(rng.NormFloat64()*std, rng.NormFloat64()*std)
	}
	bits, err := dem.Demodulate(rx, pkt.NSymbols, BPSK)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if bits[i] != pkt.PayloadBits[i] {
			errs++
		}
	}
	if errs > 0 {
		t.Errorf("BPSK at 20 dB: %d bit errors", errs)
	}
}

func TestDemodulateTooShort(t *testing.T) {
	dem := NewDemodulator(DefaultParams())
	if _, err := dem.Demodulate(make([]complex128, 10), 1, BPSK); err == nil {
		t.Error("short input accepted")
	}
}

func TestPreambleOccupiedBandOnly(t *testing.T) {
	// STF and LTF must not occupy bins beyond +-26 or DC.
	mod := NewModulator(DefaultParams())
	for name, f := range map[string][]complex128{
		"stf": mod.shortTrainingFreq(),
		"ltf": mod.longTrainingFreq(),
	} {
		if f[0] != 0 {
			t.Errorf("%s has DC energy", name)
		}
		for k := 27; k <= 64-27; k++ {
			if f[k] != 0 {
				t.Errorf("%s occupies guard bin %d", name, k)
			}
		}
	}
}

func BenchmarkBuildPacket(b *testing.B) {
	mod := NewModulator(DefaultParams())
	payload := bytes.Repeat([]byte{0x5A}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.BuildPacket(payload, QAM16); err != nil {
			b.Fatal(err)
		}
	}
}
