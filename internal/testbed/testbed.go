// Package testbed reconstructs the paper's Figure 4 office environment:
// a building with a main room containing the 8-antenna WARP access point
// and a cement pillar, an adjacent office, a corridor wing, and the 20
// numbered Soekris clients whose bearings the evaluation measures. All
// experiment drivers (Figures 5-7, accuracy claims, fence, spoofing) run
// against this floor plan.
//
// Layout (metres, origin at the building's south-west corner):
//
//	y=16 +----------------------------------------------+
//	     |  20   19      18       17       15   16      |  corridor wing
//	y=10 +----------------------[drywall]---------------+
//	     |        9                  10  .  11          |
//	     |   8        AP1 (8,5)    [pillar] 12    | 2   |
//	     |        7        5     3    4            | 13 |  east office
//	     |   6                                14   |    |
//	y=0  +---------------------------[drywall x=16]-----+
//	     x=0                        x=16           x=24
//
// Clients 6 (far corner), 11 (fully behind the pillar) and 12 (behind the
// pillar with strong east-wall reflections) reproduce the degraded cases
// the paper singles out in Figure 5; client 2 sits in "another room
// nearby" and clients 5 / 10 are the near / far in-room clients of
// Figure 6.
package testbed

import (
	"fmt"
	"sync"

	"secureangle/internal/antenna"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/ofdm"
	"secureangle/internal/radio"
	"secureangle/internal/rng"
	"secureangle/internal/wifi"
)

// NoiseFloor is the absolute per-sample noise variance of the receiver
// chains, chosen to give roughly 30 dB SNR for a line-of-sight client 5 m
// from the AP — comparable to the prototype's indoor operating point.
const NoiseFloor = 4e-9

// AP1 is the primary access point position (main room), matching the
// "AP" marker of Figure 4.
var AP1 = geom.Point{X: 8, Y: 5}

// AP2 and AP3 are the additional access points the virtual-fence
// application uses for bearing triangulation (section 2.3.1: "an
// environment where more than two access points are computing this
// bearing information").
var (
	AP2 = geom.Point{X: 20, Y: 5}
	AP3 = geom.Point{X: 12, Y: 13}
)

// Pillar is the cement pillar in the main room that blocks clients 11 and
// 12. A ray through the pillar crosses two faces; the per-face amplitude
// transmission of 0.6 yields ~9 dB total power attenuation — enough to
// bring wall reflections within a few dB of the direct path (the paper's
// "blocked" clients still show a direct-path peak, just with greater
// variance and occasional false-positive flips, section 3.1), unlike an
// exterior concrete wall which is nearly opaque.
var Pillar = env.Obstacle{
	Poly: geom.Rect(10.0, 6.4, 10.8, 7.2),
	Mat:  env.Material{Reflection: 0.45, Transmission: 0.6},
	Name: "pillar",
}

// Client is one numbered Soekris client.
type Client struct {
	ID  int
	Pos geom.Point
	// Room is a human-readable location tag.
	Room string
}

// Clients returns the 20 clients of Figure 4.
func Clients() []Client {
	return []Client{
		{1, geom.Point{X: 10.5, Y: 8.2}, "main"},
		{2, geom.Point{X: 18.5, Y: 6.5}, "east office"},
		{3, geom.Point{X: 12.5, Y: 6.2}, "main"},
		{4, geom.Point{X: 13.5, Y: 4.0}, "main"},
		{5, geom.Point{X: 9.8, Y: 3.6}, "main"},
		{6, geom.Point{X: 0.8, Y: 0.8}, "main (far corner)"},
		{7, geom.Point{X: 4.0, Y: 2.2}, "main"},
		{8, geom.Point{X: 2.2, Y: 5.2}, "main"},
		{9, geom.Point{X: 3.0, Y: 8.4}, "main"},
		{10, geom.Point{X: 14.0, Y: 8.6}, "main (far)"},
		{11, geom.Point{X: 12.8, Y: 8.6}, "main (behind pillar)"},
		{12, geom.Point{X: 13.0, Y: 7.8}, "main (behind pillar)"},
		{13, geom.Point{X: 20.0, Y: 3.0}, "east office"},
		{14, geom.Point{X: 22.5, Y: 8.5}, "east office"},
		{15, geom.Point{X: 17.5, Y: 12.5}, "corridor"},
		{16, geom.Point{X: 21.0, Y: 14.0}, "corridor"},
		{17, geom.Point{X: 13.0, Y: 13.0}, "corridor"},
		{18, geom.Point{X: 9.0, Y: 14.5}, "corridor"},
		{19, geom.Point{X: 5.0, Y: 12.0}, "corridor"},
		{20, geom.Point{X: 1.5, Y: 14.5}, "corridor"},
	}
}

// ClientByID returns the client with the given 1-based ID.
func ClientByID(id int) (Client, error) {
	for _, c := range Clients() {
		if c.ID == id {
			return c, nil
		}
	}
	return Client{}, fmt.Errorf("testbed: no client %d", id)
}

// OutsidePositions are transmitter locations outside the building shell,
// used by the virtual-fence and attacker experiments.
func OutsidePositions() []geom.Point {
	return []geom.Point{
		{X: -3, Y: 8},
		{X: 27, Y: 4},
		{X: 12, Y: -3},
		{X: 26, Y: 15},
	}
}

// Building constructs the environment (walls, pillar) and returns it with
// the fence polygon (the building shell).
func Building() (*env.Environment, geom.Polygon) {
	shell := geom.Rect(0, 0, 24, 16)
	walls := []env.Wall{
		// Concrete exterior shell.
		{Seg: geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 24, Y: 0}}, Mat: env.Concrete, Name: "shell-s"},
		{Seg: geom.Segment{A: geom.Point{X: 24, Y: 0}, B: geom.Point{X: 24, Y: 16}}, Mat: env.Concrete, Name: "shell-e"},
		{Seg: geom.Segment{A: geom.Point{X: 24, Y: 16}, B: geom.Point{X: 0, Y: 16}}, Mat: env.Concrete, Name: "shell-n"},
		{Seg: geom.Segment{A: geom.Point{X: 0, Y: 16}, B: geom.Point{X: 0, Y: 0}}, Mat: env.Concrete, Name: "shell-w"},
		// Internal drywall partitions: east office and corridor wing.
		{Seg: geom.Segment{A: geom.Point{X: 16, Y: 0}, B: geom.Point{X: 16, Y: 10}}, Mat: env.Drywall, Name: "part-e"},
		{Seg: geom.Segment{A: geom.Point{X: 0, Y: 10}, B: geom.Point{X: 24, Y: 10}}, Mat: env.Drywall, Name: "part-n"},
	}
	e := env.New(walls, []env.Obstacle{Pillar})
	e.MaxOrder = 1
	return e, shell
}

// GroundTruth returns the true bearing (global degrees) from an AP
// position to a client position.
func GroundTruth(ap, client geom.Point) float64 { return geom.BearingDeg(ap, client) }

// CircularArray returns the paper's octagonal 8-antenna arrangement.
func CircularArray() *antenna.Array {
	return antenna.NewUCA(8, 0.047, antenna.DefaultCarrierHz)
}

// LinearArray returns the paper's half-wavelength 8-antenna ULA.
func LinearArray() *antenna.Array {
	return antenna.NewHalfWaveULA(8, antenna.DefaultCarrierHz)
}

// RSSPowers returns the linear received power of a transmitter at tx at
// each of AP1, AP2 and AP3 — the sum of its path-gain powers — the input
// of the RSS signalprint baseline (baseline.FromPowers).
func RSSPowers(e *env.Environment, tx geom.Point) []float64 {
	aps := []geom.Point{AP1, AP2, AP3}
	powers := make([]float64, len(aps))
	for i, ap := range aps {
		for _, path := range e.Trace(tx, ap) {
			powers[i] += real(path.Gain)*real(path.Gain) + imag(path.Gain)*imag(path.Gain)
		}
	}
	return powers
}

// NewAPFrontEnd builds a calibratable front end at pos with testbed noise
// settings.
func NewAPFrontEnd(arr *antenna.Array, pos geom.Point, src *rng.Source) *radio.FrontEnd {
	return radio.NewFrontEnd(arr, pos, src, radio.WithNoiseFloor(NoiseFloor))
}

// ClientMAC returns a deterministic MAC address for a client ID.
func ClientMAC(id int) wifi.Addr {
	return wifi.Addr{0x00, 0x16, 0xea, 0x50, 0x00, byte(id)}
}

// BSSID is the testbed's BSS identifier.
var BSSID = wifi.Addr{0x00, 0x16, 0xea, 0x00, 0x00, 0xff}

// UplinkFrame builds a representative uplink data frame from a client.
func UplinkFrame(clientID int, seq uint16, payload []byte) *wifi.Frame {
	return &wifi.Frame{
		Type:    wifi.Data,
		ToDS:    true,
		Addr1:   BSSID,
		Addr2:   ClientMAC(clientID),
		Addr3:   BSSID,
		Seq:     seq,
		Payload: payload,
	}
}

// maxBasebandCacheEntries bounds the modulated-frame cache (an entry is
// ~1100 complexes; the testbed's workloads cycle through a handful of
// distinct frames).
const maxBasebandCacheEntries = 64

// basebandEntry is one modulated frame, or the build of it in flight:
// ready closes once bb is set.
type basebandEntry struct {
	ready chan struct{}
	bb    []complex128
}

var (
	basebandMu    sync.Mutex
	basebandCache map[string]*basebandEntry

	// keyPool holds scratch buffers for the cache key so a warm
	// FrameBaseband call marshals the frame without allocating.
	keyPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 1<<10)
		return &b
	}}

	// modulator builds every testbed frame: its preamble and carrier
	// lists are resolved once, and BuildPadded only reads them, so
	// concurrent builds share it.
	modulator = ofdm.NewModulator(ofdm.DefaultParams())
)

// FrameBaseband turns a MAC frame into padded OFDM baseband samples ready
// for the channel: the transmit side of the testbed. The frame is
// modulated once, straight into a buffer with 300 zero samples before
// and after it. Modulation is a pure function of the frame bytes, so
// results are cached by content — the returned slice is shared across
// calls and must be treated as read-only (every receive path only reads
// the transmit buffer). Concurrent callers for a frame not yet cached
// (lockstep APs hearing one transmission) share a single build. The
// error is always nil.
func FrameBaseband(f *wifi.Frame, mod ofdm.Modulation) ([]complex128, error) {
	kb := keyPool.Get().(*[]byte)
	key := append(f.AppendMarshal((*kb)[:0]), byte(mod))
	defer func() {
		*kb = key
		keyPool.Put(kb)
	}()
	basebandMu.Lock()
	e, ok := basebandCache[string(key)]
	if !ok {
		if basebandCache == nil || len(basebandCache) >= maxBasebandCacheEntries {
			basebandCache = make(map[string]*basebandEntry)
		}
		e = &basebandEntry{ready: make(chan struct{})}
		basebandCache[string(key)] = e
	}
	basebandMu.Unlock()
	if ok {
		<-e.ready
		return e.bb, nil
	}
	e.bb = modulator.BuildPadded(key[:len(key)-1], mod, 300, 300)
	close(e.ready)
	return e.bb, nil
}
