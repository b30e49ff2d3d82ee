package fusion

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// fakeClock is an injectable test clock (the engine's ticker still
// runs on wall time, but every deadline comparison uses this).
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

type capture struct {
	mu   sync.Mutex
	decs []Decision
	logs []string
}

func (c *capture) emit(d Decision, _ TrackState) {
	c.mu.Lock()
	c.decs = append(c.decs, d)
	c.mu.Unlock()
}

func (c *capture) logf(format string, args ...any) {
	c.mu.Lock()
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *capture) decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decs...)
}

func (c *capture) logged(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.logs {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func testFence() *locate.Fence {
	return &locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)}
}

func newTestEngine(t *testing.T, cfg Config, clk *fakeClock, cap *capture) *Engine {
	t.Helper()
	if cfg.Fence == nil {
		cfg.Fence = testFence()
	}
	if clk != nil {
		cfg.Clock = clk.Now
	}
	if cap != nil {
		cfg.Emit = cap.emit
		cfg.Logf = cap.logf
	}
	// Keep the wall-clock ticker out of the way: tests drive Sweep with
	// the fake clock directly.
	if cfg.TickInterval == 0 {
		cfg.TickInterval = time.Hour
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func mac(i int) wifi.Addr {
	return wifi.Addr{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
}

// bearingsAt returns two diverse bearings observing target from fixed
// AP corners.
func bearingsAt(macAddr wifi.Addr, seq uint64, target geom.Point) []Bearing {
	ap1 := geom.Point{X: 4, Y: 2}
	ap2 := geom.Point{X: 20, Y: 3}
	return []Bearing{
		{AP: "ap1", APPos: ap1, MAC: macAddr, Seq: seq, Deg: geom.BearingDeg(ap1, target)},
		{AP: "ap2", APPos: ap2, MAC: macAddr, Seq: seq, Deg: geom.BearingDeg(ap2, target)},
	}
}

// TestFusionLoneAPReportExpires is the leak regression test: a report
// only one AP ever makes must be evicted at PendingTTL and logged —
// the seed controller kept these forever because the only timer was
// armed after the MinAPs threshold.
func TestFusionLoneAPReportExpires(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{PendingTTL: 5 * time.Second}, clk, cap)

	e.Ingest(Bearing{AP: "ap1", APPos: geom.Point{X: 4, Y: 2}, MAC: mac(1), Seq: 7, Deg: 30})
	if got := e.PendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}

	// Before the TTL nothing expires.
	clk.Advance(4 * time.Second)
	e.Sweep(clk.Now())
	if got := e.PendingCount(); got != 1 {
		t.Fatalf("pending after 4s = %d, want 1", got)
	}

	clk.Advance(2 * time.Second)
	e.Sweep(clk.Now())
	if got := e.PendingCount(); got != 0 {
		t.Fatalf("pending after TTL = %d, want 0", got)
	}
	if s := e.Stats(); s.PendingExpired != 1 {
		t.Errorf("PendingExpired = %d, want 1", s.PendingExpired)
	}
	if !cap.logged("expired") {
		t.Error("expiry was not logged")
	}
	if len(cap.decisions()) != 0 {
		t.Errorf("lone-AP report produced decisions: %+v", cap.decisions())
	}
}

// TestFusionDecidedStateBounded is the dedup-leak regression test:
// 100k sequential (MAC, seq) decisions must keep engine state flat —
// one live client, zero pending — asserted via the shard-size
// accessors, not runtime heap stats.
func TestFusionDecidedStateBounded(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{}, clk, cap)

	m := mac(42)
	target := geom.Point{X: 9, Y: 6}
	const n = 100_000
	for seq := uint64(1); seq <= n; seq++ {
		for _, b := range bearingsAt(m, seq, target) {
			e.Ingest(b)
		}
	}
	if got := len(cap.decisions()); got != n {
		t.Fatalf("decisions = %d, want %d", got, n)
	}
	if got := e.ClientCount(); got != 1 {
		t.Errorf("ClientCount = %d, want 1 (decided state leaked per seq?)", got)
	}
	if got := e.PendingCount(); got != 0 {
		t.Errorf("PendingCount = %d, want 0", got)
	}
	// Re-sending an already-decided seq inside the window is a dup.
	e.Ingest(bearingsAt(m, n, target)[0])
	if s := e.Stats(); s.DupDropped != 1 {
		t.Errorf("DupDropped = %d, want 1", s.DupDropped)
	}
	ts, ok := e.Track(m)
	if !ok || ts.Fixes != n || ts.LastSeq != n {
		t.Errorf("track = %+v ok=%v, want %d fixes through seq %d", ts, ok, n, n)
	}
}

// TestFusionSeqWindowDedup pins the sliding-window semantics: recent
// decided seqs and seqs older than the window are dups; fresh seqs
// inside the window still fuse.
func TestFusionSeqWindowDedup(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{}, clk, cap)

	m := mac(3)
	target := geom.Point{X: 9, Y: 6}
	decide := func(seq uint64) {
		for _, b := range bearingsAt(m, seq, target) {
			e.Ingest(b)
		}
	}
	decide(1000)
	decide(998) // older but inside the window: fuses
	if got := len(cap.decisions()); got != 2 {
		t.Fatalf("decisions = %d, want 2", got)
	}
	decide(1000 - seqWindow) // fell off the back: treated as dup
	if got := len(cap.decisions()); got != 2 {
		t.Errorf("out-of-window seq fused; decisions = %d", len(cap.decisions()))
	}
	if s := e.Stats(); s.DupDropped == 0 {
		t.Error("out-of-window seq not counted as dup")
	}
}

// TestFusionClientCapEvictsLRU: hostile MAC churn cannot grow state
// past MaxClients; the least-recently-active client goes first.
func TestFusionClientCapEvictsLRU(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{Shards: 1, MaxClients: 8}, clk, cap)

	for i := 0; i < 50; i++ {
		e.Ingest(Bearing{AP: "ap1", APPos: geom.Point{X: 4, Y: 2}, MAC: mac(i), Seq: 1, Deg: 30})
	}
	if got := e.ClientCount(); got > 8 {
		t.Errorf("ClientCount = %d, want <= 8", got)
	}
	s := e.Stats()
	if s.ClientsEvicted != 50-8 {
		t.Errorf("ClientsEvicted = %d, want %d", s.ClientsEvicted, 50-8)
	}
	// The most recent client survived.
	e.Ingest(Bearing{AP: "ap2", APPos: geom.Point{X: 20, Y: 3}, MAC: mac(49),
		Seq: 1, Deg: geom.BearingDeg(geom.Point{X: 20, Y: 3}, geom.Point{X: 9, Y: 6})})
	if got := e.ClientCount(); got > 8 {
		t.Errorf("ClientCount after touch = %d", got)
	}
}

// TestFusionPendingCapPerClient: one client flooding fresh seqs from a
// single AP is bounded by MaxPendingPerClient.
func TestFusionPendingCapPerClient(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{MaxPendingPerClient: 4}, clk, cap)

	m := mac(7)
	for seq := uint64(1); seq <= 100; seq++ {
		clk.Advance(time.Millisecond) // distinct created times
		e.Ingest(Bearing{AP: "ap1", APPos: geom.Point{X: 4, Y: 2}, MAC: m, Seq: seq, Deg: 30})
	}
	if got := e.PendingCount(); got != 4 {
		t.Errorf("PendingCount = %d, want 4", got)
	}
	if s := e.Stats(); s.PendingEvicted != 96 {
		t.Errorf("PendingEvicted = %d, want 96", s.PendingEvicted)
	}
}

// TestFusionForcedTimeout: a degenerate pair (bearings nearly
// parallel) is held, then force-fused at the decision deadline by the
// sweeper, with the Forced flag and counter set.
func TestFusionForcedTimeout(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{DecisionTimeout: time.Second}, clk, cap)

	ap1 := geom.Point{X: 20, Y: 5}
	ap2 := geom.Point{X: 12, Y: 13}
	target := geom.Point{X: 16, Y: 9.5} // near the ap1-ap2 line: ~7 deg diversity
	m := mac(9)
	e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap1, target)})
	e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap2, target)})
	if len(cap.decisions()) != 0 {
		t.Fatal("degenerate pair decided immediately")
	}

	clk.Advance(1500 * time.Millisecond)
	e.Sweep(clk.Now())
	decs := cap.decisions()
	if len(decs) != 1 {
		t.Fatalf("decisions after timeout = %d, want 1", len(decs))
	}
	if !decs[0].Forced {
		t.Error("decision not marked Forced")
	}
	if s := e.Stats(); s.ForcedTimeouts != 1 {
		t.Errorf("ForcedTimeouts = %d, want 1", s.ForcedTimeouts)
	}
}

// TestFusionDiversityConfigurable exercises MinDiversityDeg: negative
// disables the geometric-dilution guard entirely, and a custom
// threshold changes what counts as diverse.
func TestFusionDiversityConfigurable(t *testing.T) {
	ap1 := geom.Point{X: 20, Y: 5}
	ap2 := geom.Point{X: 12, Y: 13}
	target := geom.Point{X: 16, Y: 9.5} // near the ap1-ap2 line: ~7 deg diversity
	degenerate := func(e *Engine, m wifi.Addr) {
		e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap1, target)})
		e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap2, target)})
	}

	// Disabled guard: the degenerate pair fuses immediately.
	capOff := &capture{}
	off := newTestEngine(t, Config{MinDiversityDeg: -1}, newFakeClock(), capOff)
	degenerate(off, mac(1))
	if len(capOff.decisions()) != 1 {
		t.Errorf("disabled guard held the decision: %d decisions", len(capOff.decisions()))
	}

	// Default guard (0 -> 15 deg): held.
	capDef := &capture{}
	def := newTestEngine(t, Config{}, newFakeClock(), capDef)
	degenerate(def, mac(2))
	if len(capDef.decisions()) != 0 {
		t.Error("default guard fused a degenerate pair")
	}

	// A stricter threshold holds geometry the default would pass.
	ap3 := geom.Point{X: 4, Y: 2}
	capStrict := &capture{}
	strict := newTestEngine(t, Config{MinDiversityDeg: 89}, newFakeClock(), capStrict)
	m := mac(3)
	good := geom.Point{X: 9, Y: 6}
	strict.Ingest(Bearing{AP: "ap1", APPos: ap3, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap3, good)})
	strict.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap2, good)})
	if len(capStrict.decisions()) != 0 {
		t.Error("89-degree threshold passed ordinary geometry")
	}
}

// TestFusionConfigValidate pins the Config-style validation contract.
func TestFusionConfigValidate(t *testing.T) {
	valid := Config{Fence: testFence()}.WithDefaults()
	if err := valid.Validate(); err != nil {
		t.Fatalf("defaulted config invalid: %v", err)
	}
	bad := []Config{
		{}, // no fence
		{Fence: testFence(), Shards: -1},
		{Fence: testFence(), MinAPs: 1},
		{Fence: testFence(), MinDiversityDeg: 95},
		{Fence: testFence(), MaxClients: -5},
		{Fence: testFence(), MaxPendingPerClient: -1},
		{Fence: testFence(), PendingTTL: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew did not panic on invalid config")
			}
		}()
		MustNew(Config{})
	}()
}

// TestFusionAPCountShortcut: once every registered AP has reported, a
// non-diverse decision fuses without waiting for the timeout (the seed
// behaviour, preserved).
func TestFusionAPCountShortcut(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	cfg := Config{APCount: func() int { return 2 }}
	e := newTestEngine(t, cfg, clk, cap)

	ap1 := geom.Point{X: 20, Y: 5}
	ap2 := geom.Point{X: 12, Y: 13}
	target := geom.Point{X: 16, Y: 9}
	m := mac(11)
	e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap1, target)})
	e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap2, target)})
	if len(cap.decisions()) != 1 {
		t.Errorf("all-APs-reported shortcut did not fuse: %d decisions", len(cap.decisions()))
	}
}

// TestFusionTracksMobility: fused fixes drive the per-client
// alpha-beta filter; Track and Snapshot expose the filtered trace.
func TestFusionTracksMobility(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{}, clk, cap)

	m := mac(5)
	// Walk east at 2 m/s, one fix per second.
	for i := 0; i < 10; i++ {
		target := geom.Point{X: 4 + 2*float64(i), Y: 6}
		for _, b := range bearingsAt(m, uint64(i+1), target) {
			e.Ingest(b)
		}
		clk.Advance(time.Second)
	}
	ts, ok := e.Track(m)
	if !ok {
		t.Fatal("no track for mobile client")
	}
	if ts.Fixes != 10 {
		t.Errorf("fixes = %d, want 10", ts.Fixes)
	}
	final := geom.Point{X: 22, Y: 6}
	if ts.Pos.Dist(final) > 1.5 {
		t.Errorf("filtered pos %v, want near %v", ts.Pos, final)
	}
	if vx := ts.Vel.X; vx < 1.0 || vx > 3.0 {
		t.Errorf("velocity estimate %v, want ~2 m/s east", ts.Vel)
	}
	snap := e.Snapshot()
	if len(snap) != 1 || snap[0].MAC != m {
		t.Errorf("snapshot = %+v, want one entry for %v", snap, m)
	}
	if _, ok := e.Track(mac(99)); ok {
		t.Error("track for unknown MAC")
	}
}

// TestFusionConcurrentIngest hammers the sharded engine from many
// goroutines (run under -race by CI's fusion-stress job) and checks
// exactly one decision per fusable transmission.
func TestFusionConcurrentIngest(t *testing.T) {
	clk := newFakeClock()
	var decided atomic.Uint64
	cfg := Config{
		Fence: testFence(),
		Emit:  func(Decision, TrackState) { decided.Add(1) },
		// Both APs reporting triggers the all-APs shortcut, so no key
		// can stall on the diversity guard under the frozen test clock.
		APCount: func() int { return 2 },
		Clock:   clk.Now,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nSenders = 8
	const nTx = 200
	targets := make([]geom.Point, nTx)
	for i := range targets {
		targets[i] = geom.Point{X: 2 + float64(i%20), Y: 2 + float64(i%12)}
	}
	var wg sync.WaitGroup
	for g := 0; g < nSenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Senders alternate between the two AP identities so every
			// (MAC, seq) key receives both bearings, repeatedly.
			for i := 0; i < nTx; i++ {
				for _, b := range bearingsAt(mac(i), uint64(i), targets[i]) {
					e.Ingest(b)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := decided.Load(); got != nTx {
		t.Errorf("decisions = %d, want exactly %d (dups fused or lost)", got, nTx)
	}
	if got := e.ClientCount(); got != nTx {
		t.Errorf("ClientCount = %d, want %d", got, nTx)
	}
	if got := e.PendingCount(); got != 0 {
		t.Errorf("PendingCount = %d, want 0", got)
	}
}

// TestFusionFuseErrorKeepsEntryForRescue: an ingest-path triangulation
// failure (exactly collinear bearings, guard disabled) must not poison
// the dedup window — the entry stays pending and a later diverse
// bearing rescues the transmission, as the seed controller allowed
// (but now bounded by the TTL).
func TestFusionFuseErrorKeepsEntryForRescue(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{MinDiversityDeg: -1}, clk, cap)

	// Two parallel vertical bearing lines (x=8 and x=20): Triangulate
	// reliably returns ErrDegenerate for these.
	ap1 := geom.Point{X: 8, Y: 5}
	ap2 := geom.Point{X: 20, Y: 5}
	ap3 := geom.Point{X: 4, Y: 2}
	m := mac(21)
	e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m, Seq: 1, Deg: 90})
	e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m, Seq: 1, Deg: 90})
	if got := len(cap.decisions()); got != 0 {
		t.Fatalf("parallel pair fused: %d decisions", got)
	}
	if s := e.Stats(); s.FuseErrors == 0 {
		t.Fatal("parallel fuse did not count as FuseErrors")
	}
	if got := e.PendingCount(); got != 1 {
		t.Fatalf("failed entry dropped from pending (count %d), cannot be rescued", got)
	}

	// The rescuing crossing bearing arrives and the trio triangulates.
	e.Ingest(Bearing{AP: "ap3", APPos: ap3, MAC: m, Seq: 1, Deg: geom.BearingDeg(ap3, geom.Point{X: 14, Y: 8})})
	decs := cap.decisions()
	if len(decs) != 1 {
		t.Fatalf("rescue bearing produced %d decisions, want 1", len(decs))
	}
	if got := e.PendingCount(); got != 0 {
		t.Errorf("pending after rescue = %d", got)
	}

	// A deadline-path failure, by contrast, drops the entry (its wait
	// is up) without marking the window.
	m2 := mac(22)
	e.Ingest(Bearing{AP: "ap1", APPos: ap1, MAC: m2, Seq: 1, Deg: 90})
	e.Ingest(Bearing{AP: "ap2", APPos: ap2, MAC: m2, Seq: 1, Deg: 90})
	clk.Advance(15 * time.Second)
	e.Sweep(clk.Now())
	if got := e.PendingCount(); got != 0 {
		t.Errorf("pending after failed deadline fuse = %d, want 0", got)
	}
	if cl := e.ClientCount(); cl == 0 {
		t.Error("clients vanished") // both clients remain tracked (no fixes)
	}
}

// TestFusionClosedEngineDropsIngest: bearings after Close are refused
// (the sweeper is gone, so new pendings could never expire).
func TestFusionClosedEngineDropsIngest(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{}, clk, cap)
	e.Close()
	e.Ingest(Bearing{AP: "ap1", APPos: geom.Point{X: 4, Y: 2}, MAC: mac(30), Seq: 1, Deg: 30})
	if got := e.PendingCount(); got != 0 {
		t.Errorf("closed engine accepted a bearing (pending %d)", got)
	}
}

// TestFusionSeqCounterReset: real 802.11 sequence counters are 12-bit
// and wrap 4095 -> 0; the dedup window must read the large backward
// jump as a counter reset and keep fusing, not blacklist the client.
func TestFusionSeqCounterReset(t *testing.T) {
	clk := newFakeClock()
	cap := &capture{}
	e := newTestEngine(t, Config{}, clk, cap)

	m := mac(31)
	target := geom.Point{X: 9, Y: 6}
	decide := func(seq uint64) {
		for _, b := range bearingsAt(m, seq, target) {
			e.Ingest(b)
		}
	}
	decide(4094)
	decide(4095)
	decide(0) // the wrap
	decide(1)
	if got := len(cap.decisions()); got != 4 {
		t.Fatalf("decisions across the wrap = %d, want 4 (client blacklisted?)", got)
	}
	// Post-reset the window lives at the new counter: a replay of the
	// fresh seq is still a dup...
	decide(1)
	if got := len(cap.decisions()); got != 4 {
		t.Errorf("replay after reset fused (%d decisions)", got)
	}
	// ...and moderately-old stale seqs still count as replays.
	decide(1 + seqWindow) // advance hi
	e.Ingest(bearingsAt(m, 2, target)[0])
	if s := e.Stats(); s.DupDropped < 2 {
		t.Errorf("DupDropped = %d, want >= 2", s.DupDropped)
	}
	if ts, _ := e.Track(m); ts.Fixes != 5 {
		t.Errorf("fixes = %d, want 5", ts.Fixes)
	}
}
