package defense

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/wifi"
)

// testEngine builds an engine on a synthetic clock with the sweeper
// ticker effectively disabled (tests drive Sweep directly).
func testEngine(t *testing.T, cfg Config) (*Engine, *time.Time, *[]Directive, *sync.Mutex) {
	t.Helper()
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	var emitted []Directive
	cfg.Clock = func() time.Time { return now }
	cfg.TickInterval = time.Hour
	if cfg.Emit == nil {
		cfg.Emit = func(d Directive) {
			mu.Lock()
			emitted = append(emitted, d)
			mu.Unlock()
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, &now, &emitted, &mu
}

func mac(i int) wifi.Addr {
	return wifi.MustParseAddr(fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff))
}

func flagged(ap string, m wifi.Addr, dist float64) SpoofVerdict {
	return SpoofVerdict{AP: ap, MAC: m, Flagged: true, Distance: dist, Threshold: 0.12, BearingDeg: 42, HasBearing: true, Stage: "spoofcheck"}
}

func TestDefensePolicyValidate(t *testing.T) {
	if err := (Policy{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []Policy{
		{QuarantineScore: 0.5},                // below default MonitorScore
		{ReleaseScore: 2},                     // above MonitorScore
		{HalfLife: -time.Second},              // negative decay
		{NullSteerScore: 1},                   // below QuarantineScore
		{MonitorScore: -1},                    // negative threshold
		{SpoofWeight: -1},                     // negative weight
		{MinQuarantine: -time.Second},         // negative residence
		{MonitorScore: 3, QuarantineScore: 2}, // inverted thresholds
		{ReleaseScore: 1, MonitorScore: 1},    // release not below monitor
	}
	for i, p := range bad {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("bad policy %d validated: %+v", i, p)
		}
	}
	if _, err := New(Config{Policy: Policy{ReleaseScore: 9}}); err == nil {
		t.Error("New accepted a contradictory policy")
	}
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("New accepted negative Shards")
	}
}

func TestDefenseSpoofEscalationAndMargin(t *testing.T) {
	e, _, emitted, mu := testEngine(t, Config{})
	m := mac(1)

	// An accepted verdict for an unknown MAC creates no state — clean
	// traffic must not churn threat entries.
	e.ReportSpoof(SpoofVerdict{AP: "ap1", MAC: m, Distance: 0.02, Threshold: 0.12})
	if st, ok := e.State(m); ok {
		t.Fatalf("accepted verdict created state: %+v", st)
	}
	if n := e.ClientCount(); n != 0 {
		t.Fatalf("ClientCount after clean verdict = %d", n)
	}

	// One flagged verdict at default weights quarantines immediately
	// (the seed's single-alert semantics).
	e.ReportSpoof(flagged("ap1", m, 0.5))
	st, ok := e.State(m)
	if !ok || st.State != StateQuarantine || st.Action != ActionQuarantine {
		t.Fatalf("after flag: %+v, %v", st, ok)
	}
	// Severity scaling: distance 0.5 vs threshold 0.12 caps at 2x weight.
	if st.Score != 2*DefaultSpoofWeight {
		t.Errorf("score %v, want severity-capped %v", st.Score, 2*DefaultSpoofWeight)
	}
	mu.Lock()
	if len(*emitted) != 1 || (*emitted)[0].Action != ActionQuarantine ||
		(*emitted)[0].To != StateQuarantine || (*emitted)[0].MAC != m {
		t.Fatalf("directives = %+v", *emitted)
	}
	if (*emitted)[0].BearingDeg != 42 || (*emitted)[0].Stage != "spoofcheck" {
		t.Errorf("directive evidence = %+v", (*emitted)[0])
	}
	mu.Unlock()

	// A second flag escalates past NullSteerScore (4 + 4 >= 5).
	e.ReportSpoof(flagged("ap1", m, 0.5))
	st, _ = e.State(m)
	if st.Action != ActionNullSteer {
		t.Fatalf("no null-steer escalation: %+v", st)
	}
	mu.Lock()
	if n := len(*emitted); n != 2 || (*emitted)[1].Action != ActionNullSteer {
		t.Fatalf("directives after escalation = %+v", *emitted)
	}
	mu.Unlock()

	s := e.Stats()
	if s.Quarantines != 1 || s.NullSteers != 1 || s.Directives != 2 || s.SpoofVerdicts != 3 {
		t.Errorf("stats = %+v", s)
	}
	if q := e.Quarantined(); len(q) != 1 || q[0].MAC != m {
		t.Errorf("quarantined = %+v", q)
	}
}

// TestDefenseVerdictSeverity pins the spoof-weight scaling formula:
// zero for accepts and a non-positive threshold,
// (Distance-Threshold)/Threshold for flags.
func TestDefenseVerdictSeverity(t *testing.T) {
	for _, tc := range []struct {
		v    SpoofVerdict
		want float64
	}{
		{SpoofVerdict{Distance: 0.5, Threshold: 0.12}, 0},                 // accepted
		{SpoofVerdict{Flagged: true, Distance: 0.1, Threshold: 0.12}, 0},  // flagged below threshold
		{SpoofVerdict{Flagged: true, Distance: 0.24, Threshold: 0.12}, 1}, // doubled
		{SpoofVerdict{Flagged: true, Distance: 0.15, Threshold: 0.12}, (0.15 - 0.12) / 0.12},
		{SpoofVerdict{Flagged: true, Distance: 0.5, Threshold: 0}, 0}, // no division blow-up
	} {
		if got := tc.v.Severity(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%+v: severity %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestDefenseFenceMonitorThenQuarantine(t *testing.T) {
	e, _, emitted, mu := testEngine(t, Config{})
	m := mac(2)
	out := geom.Point{X: -3, Y: 2}

	// Fence drops accumulate: 0.5 each, monitor at 1, quarantine at 2.
	e.ReportFence(FenceVerdict{MAC: m, Seq: 1, Pos: out, Allowed: false})
	if st, _ := e.State(m); st.State != StateAllow {
		t.Fatalf("one drop escalated: %+v", st)
	}
	e.ReportFence(FenceVerdict{MAC: m, Seq: 2, Pos: out, Allowed: false})
	if st, _ := e.State(m); st.State != StateMonitor {
		t.Fatalf("two drops (score 1) not monitoring: %+v", st)
	}
	// Forced decisions count half.
	e.ReportFence(FenceVerdict{MAC: m, Seq: 3, Pos: out, Allowed: false, Forced: true})
	if st, _ := e.State(m); st.State != StateMonitor || st.Score != 1.25 {
		t.Fatalf("forced drop weighting: %+v", st)
	}
	e.ReportFence(FenceVerdict{MAC: m, Seq: 4, Pos: out, Allowed: false})
	e.ReportFence(FenceVerdict{MAC: m, Seq: 5, Pos: out, Allowed: false})
	st, _ := e.State(m)
	if st.State != StateQuarantine {
		t.Fatalf("five drops not quarantined: %+v", st)
	}
	if !st.HasPos || st.Pos != out {
		t.Errorf("threat position not tracked: %+v", st)
	}
	mu.Lock()
	if len(*emitted) != 1 || !(*emitted)[0].HasPos || (*emitted)[0].Pos != out {
		t.Fatalf("quarantine directive lacks position: %+v", *emitted)
	}
	if (*emitted)[0].From != StateMonitor {
		t.Errorf("transition from = %v, want monitor", (*emitted)[0].From)
	}
	mu.Unlock()
	if st.FenceDrops != 5 {
		t.Errorf("fence drops = %d, want 5", st.FenceDrops)
	}
}

func TestDefenseTrackVelocityAnomaly(t *testing.T) {
	e, _, _, _ := testEngine(t, Config{})
	m := mac(3)
	// Walking pace for an unknown MAC: no evidence, no entry.
	e.ReportTrack(TrackVerdict{MAC: m, Pos: geom.Point{X: 1}, Vel: geom.Point{X: 1.2}})
	if st, ok := e.State(m); ok {
		t.Fatalf("walking pace created state: %+v", st)
	}
	// Teleporting MAC: two radios sharing an address.
	e.ReportTrack(TrackVerdict{MAC: m, Pos: geom.Point{X: 40}, Vel: geom.Point{X: 80}})
	st, _ := e.State(m)
	if st.SpeedFlags != 1 || st.Score != DefaultSpeedWeight {
		t.Fatalf("implausible velocity not flagged: %+v", st)
	}
	// Plausible updates keep refreshing an existing threat's position.
	e.ReportTrack(TrackVerdict{MAC: m, Pos: geom.Point{X: 41}, Vel: geom.Point{X: 1}})
	if st, ok := e.State(m); !ok || st.Pos.X != 41 {
		t.Fatalf("existing threat position not refreshed: %+v, %v", st, ok)
	}
	if e.Stats().SpeedFlags != 1 {
		t.Errorf("stats speed flags = %+v", e.Stats())
	}

	// Disabled check: negative MaxSpeedMS — never anomalous, no entry.
	e2, _, _, _ := testEngine(t, Config{Policy: Policy{MaxSpeedMS: -1}})
	e2.ReportTrack(TrackVerdict{MAC: m, Pos: geom.Point{}, Vel: geom.Point{X: 500}})
	if st, ok := e2.State(m); ok {
		t.Errorf("disabled speed check created state: %+v", st)
	}
}

func TestDefenseDecayReleaseWithHysteresis(t *testing.T) {
	e, now, emitted, mu := testEngine(t, Config{
		Policy: Policy{HalfLife: time.Second, MinQuarantine: 5 * time.Second},
	})
	m := mac(4)
	e.ReportSpoof(flagged("ap1", m, 0.5)) // score 4, quarantined

	// After one half-life the score (2) is still above ReleaseScore.
	*now = now.Add(time.Second)
	e.Sweep(*now)
	if st, _ := e.State(m); st.State != StateQuarantine {
		t.Fatalf("released too early: %+v", st)
	}

	// After five half-lives the score (0.125) is below ReleaseScore and
	// MinQuarantine (5s) has passed: decay releases, no operator needed.
	*now = now.Add(4 * time.Second)
	e.Sweep(*now)
	st, ok := e.State(m)
	if !ok || st.State != StateAllow || st.Action != ActionAllow {
		t.Fatalf("no decay release: %+v, %v", st, ok)
	}
	mu.Lock()
	last := (*emitted)[len(*emitted)-1]
	mu.Unlock()
	if last.Action != ActionAllow || last.From != StateQuarantine || last.Reporter != "decay" {
		t.Fatalf("release directive = %+v", last)
	}
	if s := e.Stats(); s.DecayReleases != 1 || s.Releases != 1 {
		t.Errorf("stats = %+v", s)
	}

	// MinQuarantine hysteresis: re-quarantine; at 4s the score (~0.26)
	// is already below ReleaseScore but the residence floor holds the
	// quarantine until 5s.
	e.ReportSpoof(flagged("ap1", m, 0.5))
	*now = now.Add(4 * time.Second)
	e.Sweep(*now)
	if st, _ := e.State(m); st.State != StateQuarantine {
		t.Fatalf("left quarantine before MinQuarantine: %+v", st)
	}
	*now = now.Add(1500 * time.Millisecond)
	e.Sweep(*now)
	if st, _ := e.State(m); st.State != StateAllow {
		t.Fatalf("not released after MinQuarantine: %+v", st)
	}
}

func TestDefenseQuarantineTTLForcesRelease(t *testing.T) {
	// A huge half-life keeps the score pinned; only the TTL can release.
	e, now, emitted, mu := testEngine(t, Config{
		Policy: Policy{HalfLife: time.Hour, QuarantineTTL: 10 * time.Second},
	})
	m := mac(5)
	e.ReportSpoof(flagged("ap1", m, 0.5))

	*now = now.Add(9 * time.Second)
	e.Sweep(*now)
	if st, _ := e.State(m); st.State != StateQuarantine {
		t.Fatalf("TTL fired early: %+v", st)
	}
	*now = now.Add(2 * time.Second)
	e.Sweep(*now)
	st, _ := e.State(m)
	if st.State != StateAllow || st.Score != 0 {
		t.Fatalf("TTL did not release: %+v", st)
	}
	mu.Lock()
	last := (*emitted)[len(*emitted)-1]
	mu.Unlock()
	if last.Reporter != "ttl" || last.Action != ActionAllow {
		t.Fatalf("TTL release directive = %+v", last)
	}
	if s := e.Stats(); s.TTLReleases != 1 {
		t.Errorf("stats = %+v", s)
	}

	// Negative TTL = the seed's permanent quarantine, opt-in.
	e2, now2, _, _ := testEngine(t, Config{
		Policy: Policy{HalfLife: time.Hour, QuarantineTTL: -1},
	})
	e2.ReportSpoof(flagged("ap1", m, 0.5))
	*now2 = now2.Add(24 * time.Hour)
	e2.Sweep(*now2)
	// Score pinned near 4 by the hour half-life? 24h >> 1h half-life —
	// score decays to ~0, but MinQuarantine passed, so decay releases.
	// Permanence needs both knobs; verify the TTL path alone never fires.
	if s := e2.Stats(); s.TTLReleases != 0 {
		t.Errorf("negative TTL released by ttl: %+v", s)
	}
}

func TestDefenseOperatorRelease(t *testing.T) {
	e, _, emitted, mu := testEngine(t, Config{})
	m := mac(6)
	if e.Release(m) {
		t.Fatal("released an unknown MAC")
	}
	e.ReportSpoof(flagged("ap1", m, 0.5))
	if !e.Release(m) {
		t.Fatal("Release(known) = false")
	}
	st, _ := e.State(m)
	if st.State != StateAllow || st.Score != 0 {
		t.Fatalf("operator release state: %+v", st)
	}
	mu.Lock()
	last := (*emitted)[len(*emitted)-1]
	mu.Unlock()
	if last.Reporter != "operator" || last.Action != ActionAllow || last.From != StateQuarantine {
		t.Fatalf("operator release directive = %+v", last)
	}
	if s := e.Stats(); s.OperatorReleases != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Releasing an already-allowed client is a no-op without directives.
	mu.Lock()
	n := len(*emitted)
	mu.Unlock()
	if !e.Release(m) {
		t.Fatal("second release of known MAC = false")
	}
	mu.Lock()
	if len(*emitted) != n {
		t.Errorf("idle release emitted a directive")
	}
	mu.Unlock()
}

func TestDefenseAllowEntriesDecayAway(t *testing.T) {
	e, now, _, _ := testEngine(t, Config{Policy: Policy{HalfLife: time.Second}})
	// Allowed decisions for unknown MACs never create entries.
	for i := 0; i < 8; i++ {
		e.ReportFence(FenceVerdict{MAC: mac(300 + i), Seq: 1, Pos: geom.Point{X: 1}, Allowed: true})
	}
	if n := e.ClientCount(); n != 0 {
		t.Fatalf("allowed decisions created %d entries", n)
	}
	// One sub-threshold drop each: allow-state entries with a small
	// score, which the sweeper deletes once fully decayed.
	for i := 0; i < 32; i++ {
		e.ReportFence(FenceVerdict{MAC: mac(100 + i), Seq: 1, Pos: geom.Point{X: 1}, Allowed: false})
	}
	if n := e.ClientCount(); n != 32 {
		t.Fatalf("ClientCount = %d", n)
	}
	*now = now.Add(time.Minute)
	e.Sweep(*now)
	if n := e.ClientCount(); n != 0 {
		t.Fatalf("idle allow entries survived the sweep: %d", n)
	}
}

func TestDefenseLRUEviction(t *testing.T) {
	e, _, emitted, mu := testEngine(t, Config{Shards: 1, MaxClients: 8})
	for i := 0; i < 32; i++ {
		e.ReportSpoof(flagged("ap1", mac(200+i), 0.5))
	}
	if n := e.ClientCount(); n > 8 {
		t.Fatalf("ClientCount = %d past MaxClients 8", n)
	}
	if s := e.Stats(); s.Evicted != 24 {
		t.Errorf("evictions = %+v", s)
	}
	// The most recent MAC survives.
	if _, ok := e.State(mac(231)); !ok {
		t.Error("most recent threat entry evicted")
	}
	// Every evicted entry was quarantined, so each eviction must have
	// emitted a release directive — the engine forgetting a client must
	// not leave its countermeasures applied at the APs forever.
	mu.Lock()
	defer mu.Unlock()
	releases := 0
	for _, d := range *emitted {
		if d.Action == ActionAllow && d.Reporter == "evicted" {
			releases++
		}
	}
	if releases != 24 {
		t.Errorf("eviction releases = %d, want 24", releases)
	}
	s := e.Stats()
	if s.EvictedReleases != 24 {
		t.Errorf("EvictedReleases = %d, want 24", s.EvictedReleases)
	}
	if s.Releases != s.DecayReleases+s.TTLReleases+s.OperatorReleases+s.EvictedReleases {
		t.Errorf("release split does not sum: %+v", s)
	}
}

func TestDefenseClosedEngineRefusesIngest(t *testing.T) {
	e, _, emitted, mu := testEngine(t, Config{})
	e.Close()
	e.ReportSpoof(flagged("ap1", mac(7), 0.5))
	e.ReportFence(FenceVerdict{MAC: mac(7), Allowed: false})
	e.ReportTrack(TrackVerdict{MAC: mac(7)})
	if e.Release(mac(7)) {
		t.Error("closed engine released")
	}
	if n := e.ClientCount(); n != 0 {
		t.Errorf("closed engine grew state: %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*emitted) != 0 {
		t.Errorf("closed engine emitted: %+v", *emitted)
	}
}

// TestDefenseConcurrentIngest hammers every ingest path plus reads,
// releases, and sweeps from many goroutines — run under -race.
func TestDefenseConcurrentIngest(t *testing.T) {
	e := MustNew(Config{
		Shards:       4,
		MaxClients:   256,
		TickInterval: time.Millisecond,
		Policy:       Policy{HalfLife: 10 * time.Millisecond, MinQuarantine: time.Millisecond},
		Emit:         func(Directive) {},
	})
	defer e.Close()

	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := mac(i % 64)
				switch (w + i) % 5 {
				case 0:
					e.ReportSpoof(flagged("ap1", m, 0.3))
				case 1:
					e.ReportFence(FenceVerdict{MAC: m, Seq: uint64(i), Pos: geom.Point{X: float64(i)}, Allowed: i%2 == 0})
				case 2:
					e.ReportTrack(TrackVerdict{MAC: m, Pos: geom.Point{X: float64(i)}, Vel: geom.Point{X: float64(i % 20)}})
				case 3:
					e.State(m)
					e.Quarantined()
				case 4:
					e.Release(m)
					e.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := e.Stats()
	if s.SpoofVerdicts == 0 || s.FenceVerdicts == 0 || s.TrackVerdicts == 0 {
		t.Errorf("ingest paths unexercised: %+v", s)
	}
	if n := e.ClientCount(); n > 256 {
		t.Errorf("ClientCount %d past MaxClients", n)
	}
}

func TestDefenseNullSteerNeedsDirection(t *testing.T) {
	// Spoof evidence with no measured bearing and no fused position
	// must not order a spatial null (there is nothing to aim it at);
	// the escalation happens as soon as direction evidence arrives.
	e, _, emitted, mu := testEngine(t, Config{Policy: Policy{NullSteerScore: 2}})
	m := mac(8)
	blind := SpoofVerdict{AP: "ap1", MAC: m, Flagged: true, Distance: 0.9, Threshold: 0.12}
	e.ReportSpoof(blind)
	st, _ := e.State(m)
	if st.State != StateQuarantine || st.Action != ActionQuarantine {
		t.Fatalf("blind verdict state = %+v", st)
	}
	mu.Lock()
	if len(*emitted) != 1 || (*emitted)[0].Action != ActionQuarantine {
		t.Fatalf("directives = %+v", *emitted)
	}
	mu.Unlock()

	// A fused fix supplies the direction: the held escalation fires.
	e.ReportFence(FenceVerdict{MAC: m, Seq: 1, Pos: geom.Point{X: -2, Y: 3}, Allowed: false})
	st, _ = e.State(m)
	if st.Action != ActionNullSteer {
		t.Fatalf("no escalation after position arrived: %+v", st)
	}
	mu.Lock()
	last := (*emitted)[len(*emitted)-1]
	mu.Unlock()
	if last.Action != ActionNullSteer || !last.HasPos {
		t.Fatalf("escalation directive = %+v", last)
	}
	if last.TTL != DefaultQuarantineTTL {
		t.Errorf("directive lease TTL = %v, want policy QuarantineTTL", last.TTL)
	}
}
