package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"sync"
	"testing"

	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/ofdm"
	"secureangle/internal/wifi"
)

func TestClientsComplete(t *testing.T) {
	cs := Clients()
	if len(cs) != 20 {
		t.Fatalf("clients = %d, want 20", len(cs))
	}
	seen := map[int]bool{}
	for _, c := range cs {
		if c.ID < 1 || c.ID > 20 {
			t.Errorf("client ID %d out of range", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate client %d", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestClientByID(t *testing.T) {
	c, err := ClientByID(5)
	if err != nil || c.ID != 5 {
		t.Fatalf("ClientByID(5) = %v, %v", c, err)
	}
	if _, err := ClientByID(99); err == nil {
		t.Error("ClientByID(99) accepted")
	}
}

func TestAllClientsInsideBuilding(t *testing.T) {
	_, shell := Building()
	for _, c := range Clients() {
		if !shell.Contains(c.Pos) {
			t.Errorf("client %d at %v outside the shell", c.ID, c.Pos)
		}
	}
	for _, p := range []geom.Point{AP1, AP2, AP3} {
		if !shell.Contains(p) {
			t.Errorf("AP at %v outside the shell", p)
		}
	}
}

func TestOutsidePositionsAreOutside(t *testing.T) {
	_, shell := Building()
	for _, p := range OutsidePositions() {
		if shell.Contains(p) {
			t.Errorf("outside position %v is inside the shell", p)
		}
	}
}

func TestPillarBlockedClients(t *testing.T) {
	// Clients 11 and 12: direct path crosses the pillar (two faces, so
	// amplitude x0.36), leaving reflections within a few dB — the
	// high-variance regime of Figure 5.
	e, _ := Building()
	free := env.New(nil, nil)
	for _, id := range []int{11, 12} {
		c, _ := ClientByID(id)
		paths := e.Trace(c.Pos, AP1)
		dp, ok := env.DirectPath(paths)
		if !ok {
			t.Fatalf("client %d has no direct path", id)
		}
		fp, _ := env.DirectPath(free.Trace(c.Pos, AP1))
		ratio := cAbs(dp.Gain) / cAbs(fp.Gain)
		if math.Abs(ratio-0.36) > 1e-9 {
			t.Errorf("client %d direct attenuation = %v, want 0.36 (two pillar faces)", id, ratio)
		}
		// Strongest reflection within 6 dB of the attenuated direct path.
		var strongest float64
		for _, p := range paths {
			if p.Order > 0 {
				strongest = math.Max(strongest, cAbs(p.Gain))
			}
		}
		relDB := 20 * math.Log10(strongest/cAbs(dp.Gain))
		if relDB < -6 {
			t.Errorf("client %d strongest reflection %v dB below direct: not a hard case", id, -relDB)
		}
	}
}

func TestClient5HasClearLineOfSight(t *testing.T) {
	e, _ := Building()
	c5, _ := ClientByID(5)
	paths := e.Trace(c5.Pos, AP1)
	if paths[0].Order != 0 {
		t.Error("client 5's strongest path is not direct")
	}
}

func TestClient2InAnotherRoom(t *testing.T) {
	// Client 2's direct path crosses the drywall partition: attenuated
	// but present.
	e, _ := Building()
	c2, _ := ClientByID(2)
	dp, ok := env.DirectPath(e.Trace(c2.Pos, AP1))
	if !ok {
		t.Fatal("client 2 unreachable")
	}
	free := env.New(nil, nil)
	fp, _ := env.DirectPath(free.Trace(c2.Pos, AP1))
	ratio := cAbs(dp.Gain) / cAbs(fp.Gain)
	if math.Abs(ratio-env.Drywall.Transmission) > 1e-9 {
		t.Errorf("client 2 attenuation = %v, want one drywall crossing (%v)", ratio, env.Drywall.Transmission)
	}
}

func TestGroundTruthBearings(t *testing.T) {
	// Spot checks: client 4 at (13.5, 4) from AP1 (8, 5).
	c4, _ := ClientByID(4)
	want := math.Atan2(-1, 5.5) * 180 / math.Pi
	if want < 0 {
		want += 360
	}
	if got := GroundTruth(AP1, c4.Pos); math.Abs(got-want) > 1e-9 {
		t.Errorf("client 4 bearing = %v, want %v", got, want)
	}
}

func TestArrays(t *testing.T) {
	ca := CircularArray()
	if ca.N() != 8 {
		t.Error("circular array size")
	}
	la := LinearArray()
	if la.N() != 8 {
		t.Error("linear array size")
	}
	spacing := la.Elements[1].Sub(la.Elements[0]).Norm()
	if math.Abs(spacing-0.0613) > 3e-4 {
		t.Errorf("linear spacing = %v", spacing)
	}
}

func TestClientMACsDistinct(t *testing.T) {
	seen := map[wifi.Addr]bool{}
	for id := 1; id <= 20; id++ {
		mac := ClientMAC(id)
		if seen[mac] {
			t.Fatalf("duplicate MAC for client %d", id)
		}
		seen[mac] = true
	}
}

func TestUplinkFrameRoundTrip(t *testing.T) {
	f := UplinkFrame(7, 42, []byte("data"))
	got, err := wifi.Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr2 != ClientMAC(7) || got.Seq != 42 {
		t.Error("uplink frame fields")
	}
}

func TestFrameBaseband(t *testing.T) {
	f := UplinkFrame(1, 1, []byte("payload"))
	bb, err := FrameBaseband(f, ofdm.QPSK)
	if err != nil {
		t.Fatal(err)
	}
	// Padding present: leading zeros.
	for i := 0; i < 300; i++ {
		if bb[i] != 0 {
			t.Fatal("lead padding not zero")
		}
	}
	if len(bb) <= 600 {
		t.Error("baseband too short")
	}
}

// TestFrameBasebandDigest pins FrameBaseband's samples bit for bit: a
// sha256 over every sample's IEEE-754 bits, for each modulation at
// several payload sizes (an empty payload, one short of a symbol, and
// multi-symbol frames). The digest was taken before the frame was
// modulated straight into its padded buffer; never re-pin it.
func TestFrameBasebandDigest(t *testing.T) {
	h := sha256.New()
	var buf [16]byte
	for _, mod := range []ofdm.Modulation{ofdm.BPSK, ofdm.QPSK, ofdm.QAM16, ofdm.QAM64} {
		for _, n := range []int{0, 5, 64, 1000} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(31*i + n)
			}
			bb, err := FrameBaseband(UplinkFrame(3, uint16(n), payload), mod)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(len(bb)))
			h.Write(buf[:8])
			for _, v := range bb {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(v)))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
				h.Write(buf[:])
			}
		}
	}
	const want = "5922ed7d8fa27956ad3f3c6118e565a00221ce8d105b240c9f24161a60df7c85"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("FrameBaseband digest %s, want %s", got, want)
	}
}

// BenchmarkFrameBaseband prices one uncached frame build: every
// iteration sends a new sequence number, so each call modulates (the
// cache only skips builds of a frame already seen).
func BenchmarkFrameBaseband(b *testing.B) {
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := UplinkFrame(1+i%20, uint16(i), payload)
		if _, err := FrameBaseband(f, ofdm.QPSK); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameBasebandSharedBuild releases many callers at once on a frame
// no call has built yet: all of them must get the same backing slice,
// i.e. one build served them all.
func TestFrameBasebandSharedBuild(t *testing.T) {
	f := UplinkFrame(9, 4242, []byte("shared-build"))
	const callers = 8
	got := make([][]complex128, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = FrameBaseband(f, ofdm.QPSK)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got a baseband of its own, not the shared build", i)
		}
	}
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func TestMapRendersAllMarkers(t *testing.T) {
	m := Map()
	// All three APs.
	for _, mark := range []string{"A", "B", "C", "##"} {
		if !strings.Contains(m, mark) {
			t.Errorf("map missing %q", mark)
		}
	}
	// All client markers: digits 1-9 and letters a-k.
	for id := 1; id <= 20; id++ {
		mark := string(rune('0' + id))
		if id >= 10 {
			mark = string(rune('a' + id - 10))
		}
		if !strings.Contains(m, mark) {
			t.Errorf("map missing client %d marker %q", id, mark)
		}
	}
	// Walls intact: the border lines survive marker plotting.
	lines := strings.Split(m, "\n")
	if !strings.HasPrefix(lines[1], "+") || !strings.HasSuffix(lines[1], "+") {
		t.Error("top border broken")
	}
}
