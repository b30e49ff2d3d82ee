// Package defense closes SecureAngle's loop from detection to response.
// The paper's three analyses — per-AP AoA-signature spoof checks
// (section 2.3.2), the multi-AP virtual fence (section 2.3.1), and
// mobility tracking (section 5) — each produce verdicts about a client;
// this package is the policy engine that turns those verdicts into
// countermeasures.
//
// Every client MAC carries a threat state machine
//
//	allow -> monitor -> quarantine -> (release back to allow)
//
// driven by a decaying threat score: spoof flags (weighted by how far
// past the threshold the signature landed), fence drops, and
// physically-implausible track velocities all add evidence; time
// removes it (exponential decay with a configurable half-life). State
// transitions apply hysteresis — escalation happens at the
// Monitor/Quarantine thresholds, de-escalation only once the score has
// decayed below the lower Release threshold and a minimum quarantine
// residence has passed — so a client oscillating near a threshold does
// not flap. A hard QuarantineTTL bounds how long any quarantine can
// outlive its evidence: the seed's permanent fleet-wide quarantine map
// becomes a state that always decays back to release.
//
// The engine emits typed Directives on state transitions: quarantine
// (drop the client's frames), null-steer (additionally place a spatial
// transmit null toward the threat's bearing — the paper's section 5
// "yield to transmitters you can localise" primitive, finally wired
// into the runtime via internal/beamform), and allow (release). The
// controller broadcasts directives to APs over the v3-gated wire
// message TypeDirective; internal/core applies them.
//
// State is sharded by MAC (FNV-1a, the fusion/registry pattern) and
// bounded: MaxClients LRU-evicts the least-recently-updated client,
// and fully-decayed allow-state entries are dropped by the sweeper, so
// memory is O(live threats), never O(clients ever seen).
package defense

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/timingwheel"
	"secureangle/internal/wifi"
)

// State is a client's position in the threat state machine.
type State uint8

const (
	// StateAllow: no active suspicion; frames flow normally.
	StateAllow State = iota
	// StateMonitor: evidence below the quarantine bar; the client is
	// watched (no directive is emitted, but the state is queryable).
	StateMonitor
	// StateQuarantine: the client's frames are dropped fleet-wide, and
	// past the null-steer escalation bar APs also place a transmit null
	// on its bearing.
	StateQuarantine
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateAllow:
		return "allow"
	case StateMonitor:
		return "monitor"
	case StateQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Action is the countermeasure a Directive instructs APs to take.
type Action uint8

const (
	// ActionAllow releases the client: clear any countermeasure.
	ActionAllow Action = iota
	// ActionQuarantine drops the client's frames.
	ActionQuarantine
	// ActionNullSteer drops the client's frames and places a spatial
	// transmit null toward its bearing.
	ActionNullSteer
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionQuarantine:
		return "quarantine"
	case ActionNullSteer:
		return "null-steer"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// SpoofVerdict is one AP's scored signature check for one frame — the
// margin-carrying form of the boolean flag the seed broadcast.
type SpoofVerdict struct {
	// AP names the reporting access point.
	AP  string
	MAC wifi.Addr
	// Flagged is the binary decision (true = signature mismatch).
	Flagged bool
	// Distance and Threshold score the decision: how far the observed
	// signature sat from the certified one, against what bar.
	Distance  float64
	Threshold float64
	// BearingDeg is the bearing the AP observed the frame at — the
	// null-steer fallback direction when no fused position exists.
	// HasBearing marks it valid: an alert whose AP measured no bearing
	// (a detect or estimate failure) leaves it false, and the engine
	// will not order a null-steer on direction it does not have.
	BearingDeg float64
	HasBearing bool
	// Stage, when non-empty, is the pipeline stage behind an anomalous
	// failure ("spoofcheck" for a mismatch; "detect"/"estimate" for
	// anomalies reported as alerts).
	Stage string
	// Trace is the flagged packet's trace ID (0 = untraced).
	Trace uint64
}

// Severity is the normalised threshold exceedance of a flagged verdict:
// max(0, (Distance-Threshold)/Threshold). Zero for accepts and for a
// non-positive threshold, 1.0 when the distance doubled the threshold.
// The engine scales spoof weights by it.
func (v SpoofVerdict) Severity() float64 {
	if !v.Flagged || v.Threshold <= 0 || v.Distance <= v.Threshold {
		return 0
	}
	return (v.Distance - v.Threshold) / v.Threshold
}

// FenceVerdict is one fused virtual-fence decision.
type FenceVerdict struct {
	MAC wifi.Addr
	Seq uint64
	Pos geom.Point
	// Allowed is the fence outcome (false = located outside the
	// boundary).
	Allowed bool
	// Forced marks a decision fused at a deadline without angular
	// diversity — weaker evidence.
	Forced bool
	// Trace is the fused decision's trace ID (0 = untraced).
	Trace uint64
}

// TrackVerdict is one mobility-track update: the fused, filtered
// position and velocity of a client. The engine uses it to keep the
// threat's last known position fresh (null-steer bearings) and to flag
// physically-implausible velocities (two radios sharing one MAC
// "teleport" between fixes).
type TrackVerdict struct {
	MAC wifi.Addr
	Pos geom.Point
	Vel geom.Point
	// Trace is the underlying fused decision's trace ID (0 = untraced).
	Trace uint64
}

// Directive is one typed countermeasure order, emitted on threat-state
// transitions and broadcast to APs.
type Directive struct {
	MAC    wifi.Addr
	Action Action
	// From/To record the state transition that produced the directive.
	From, To State
	// Reporter names the origin of the triggering evidence: the flagging
	// AP, "fence" for fence-driven escalations, "track" for velocity
	// anomalies, "operator" for manual releases, "ttl"/"decay" for
	// automatic ones, "evicted" for a release forced by MaxClients
	// eviction (the engine will not remember the client, so APs must
	// not keep countermeasures for it).
	Reporter string
	// BearingDeg is the threat bearing observed by the flagging AP
	// (HasBearing marks it valid) — the null direction for APs that
	// cannot derive one from Pos.
	BearingDeg float64
	HasBearing bool
	// Pos is the threat's last known fused position; HasPos marks it
	// valid. APs with a position compute their own null bearing from it.
	Pos    geom.Point
	HasPos bool
	// TTL, when positive, is the countermeasure lease for a quarantine
	// or null-steer directive: APs self-expire the countermeasure this
	// long after applying it, so a release frame lost to a full
	// broadcast queue (or a dropped connection) cannot leave a client
	// countermeasured forever. It mirrors Policy.QuarantineTTL, which
	// always postdates any engine-side release, so the lease only fires
	// as a backstop.
	TTL time.Duration
	// Score is the threat score at emission; Distance/Threshold the last
	// spoof verdict's scoring (margin = Threshold - Distance); Stage the
	// last pipeline stage (see SpoofVerdict.Stage).
	Score     float64
	Distance  float64
	Threshold float64
	Stage     string
	// Trace is the trace ID of the last traced evidence that touched the
	// threat before this directive — the causal link an incident
	// timeline joins report, verdict, and countermeasure on.
	Trace uint64
}

// ClientThreat is one client's queryable threat state.
type ClientThreat struct {
	MAC   wifi.Addr
	State State
	// Action is the countermeasure currently directed (ActionAllow when
	// none).
	Action Action
	// Score is the decayed threat score as of Updated.
	Score float64
	// Flags / FenceDrops / SpeedFlags count the evidence ingested.
	Flags      uint64
	FenceDrops uint64
	SpeedFlags uint64
	// LastAP is the most recent flagging AP; Stage its pipeline stage;
	// LastDistance/LastThreshold its scored verdict; BearingDeg its
	// bearing (HasBearing marks it valid).
	LastAP        string
	Stage         string
	LastDistance  float64
	LastThreshold float64
	BearingDeg    float64
	HasBearing    bool
	// Pos is the last known fused position (HasPos marks it valid).
	Pos    geom.Point
	HasPos bool
	// Since is when the current state was entered; Updated the last
	// evidence or sweep touch.
	Since   time.Time
	Updated time.Time
	// Trace is the trace ID of the most recent traced evidence — the
	// handle an incident timeline (or an operator release) joins this
	// threat's history on. Zero when no traced evidence arrived.
	Trace uint64
}

// Policy tunes the threat state machine. Zero fields take the defaults;
// Validate rejects contradictions (the Config convention shared with
// core and fusion).
type Policy struct {
	// MonitorScore escalates allow -> monitor at score >= it.
	MonitorScore float64
	// QuarantineScore escalates to quarantine at score >= it.
	QuarantineScore float64
	// NullSteerScore escalates a quarantined client to the null-steer
	// countermeasure at score >= it. Negative disables null-steering
	// (quarantine stays the strongest action).
	NullSteerScore float64
	// ReleaseScore de-escalates once the decayed score drops below it —
	// the hysteresis floor, strictly below MonitorScore.
	ReleaseScore float64
	// HalfLife is the score's exponential-decay half-life.
	HalfLife time.Duration
	// MinQuarantine is the minimum quarantine residence: decay-driven
	// release is deferred until it has passed (time-domain hysteresis,
	// so one borderline flag cannot bounce a client out immediately).
	MinQuarantine time.Duration
	// QuarantineTTL hard-bounds quarantine residence: past it the client
	// is released regardless of score (the score is zeroed). Negative
	// disables the bound — the seed's permanent quarantine, opt-in.
	QuarantineTTL time.Duration
	// SpoofWeight is the score of one flagged spoof verdict, scaled by
	// (1 + Severity) so gross mismatches escalate faster.
	SpoofWeight float64
	// FenceWeight is the score of one fence Drop (halved when Forced —
	// degenerate-geometry decisions are weaker evidence).
	FenceWeight float64
	// SpeedWeight is the score of one implausible-velocity track update;
	// MaxSpeedMS is the plausibility bound (negative disables the check).
	SpeedWeight float64
	MaxSpeedMS  float64
}

// Defaults for zero Policy fields. One spoof alert quarantines
// immediately (SpoofWeight == QuarantineScore — the seed's semantics);
// fence drops and velocity anomalies accumulate through monitor first.
const (
	DefaultMonitorScore    = 1.0
	DefaultQuarantineScore = 2.0
	DefaultNullSteerScore  = 5.0
	DefaultReleaseScore    = 0.5
	DefaultHalfLife        = 30 * time.Second
	DefaultMinQuarantine   = 5 * time.Second
	DefaultQuarantineTTL   = 10 * time.Minute
	DefaultSpoofWeight     = 2.0
	DefaultFenceWeight     = 0.5
	DefaultSpeedWeight     = 1.0
	DefaultMaxSpeedMS      = 10.0
)

// WithDefaults returns p with zero fields replaced by defaults.
func (p Policy) WithDefaults() Policy {
	if p.MonitorScore == 0 {
		p.MonitorScore = DefaultMonitorScore
	}
	if p.QuarantineScore == 0 {
		p.QuarantineScore = DefaultQuarantineScore
	}
	if p.NullSteerScore == 0 {
		p.NullSteerScore = DefaultNullSteerScore
	}
	if p.ReleaseScore == 0 {
		p.ReleaseScore = DefaultReleaseScore
	}
	if p.HalfLife == 0 {
		p.HalfLife = DefaultHalfLife
	}
	if p.MinQuarantine == 0 {
		p.MinQuarantine = DefaultMinQuarantine
	}
	if p.QuarantineTTL == 0 {
		p.QuarantineTTL = DefaultQuarantineTTL
	}
	if p.SpoofWeight == 0 {
		p.SpoofWeight = DefaultSpoofWeight
	}
	if p.FenceWeight == 0 {
		p.FenceWeight = DefaultFenceWeight
	}
	if p.SpeedWeight == 0 {
		p.SpeedWeight = DefaultSpeedWeight
	}
	if p.MaxSpeedMS == 0 {
		p.MaxSpeedMS = DefaultMaxSpeedMS
	}
	return p
}

// Validate reports contradictions in an already-defaulted Policy.
func (p Policy) Validate() error {
	switch {
	case p.MonitorScore <= 0 || p.QuarantineScore <= 0:
		return errors.New("defense: non-positive escalation threshold")
	case p.QuarantineScore < p.MonitorScore:
		return fmt.Errorf("defense: QuarantineScore %g below MonitorScore %g", p.QuarantineScore, p.MonitorScore)
	case p.NullSteerScore >= 0 && p.NullSteerScore < p.QuarantineScore:
		return fmt.Errorf("defense: NullSteerScore %g below QuarantineScore %g", p.NullSteerScore, p.QuarantineScore)
	case p.ReleaseScore <= 0 || p.ReleaseScore >= p.MonitorScore:
		return fmt.Errorf("defense: ReleaseScore %g outside (0, MonitorScore)", p.ReleaseScore)
	case p.HalfLife <= 0:
		return errors.New("defense: non-positive HalfLife")
	case p.MinQuarantine < 0:
		return errors.New("defense: negative MinQuarantine")
	case p.SpoofWeight <= 0 || p.FenceWeight <= 0 || p.SpeedWeight <= 0:
		return errors.New("defense: non-positive evidence weight")
	}
	return nil
}

// Config tunes an Engine.
type Config struct {
	Policy Policy
	// Shards is the lock-striping factor over MACs (default 16).
	Shards int
	// MaxClients caps tracked threat entries across all shards; the
	// least-recently-updated entry is evicted beyond it (default 65536).
	MaxClients int
	// TickInterval is the coarse sweep period driving decay-based
	// release and TTL expiry (default 50ms).
	TickInterval time.Duration
	// Emit receives every directive, called outside all shard locks.
	// Nil discards directives (state still advances).
	Emit func(Directive)
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)

	// Clock overrides time.Now. Tests and the journal's deterministic
	// replay (internal/journal) drive it with synthetic or recorded
	// timestamps; nil means wall time.
	Clock func() time.Time
}

// Defaults for zero Config fields.
const (
	DefaultShards       = 16
	DefaultMaxClients   = 65536
	DefaultTickInterval = 50 * time.Millisecond
)

// WithDefaults returns cfg with zero fields replaced by defaults
// (including the nested Policy).
func (cfg Config) WithDefaults() Config {
	cfg.Policy = cfg.Policy.WithDefaults()
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// Validate reports contradictions in an already-defaulted Config.
func (cfg Config) Validate() error {
	if err := cfg.Policy.Validate(); err != nil {
		return err
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("defense: Shards %d < 1", cfg.Shards)
	}
	if cfg.MaxClients < 1 {
		return fmt.Errorf("defense: MaxClients %d < 1", cfg.MaxClients)
	}
	if cfg.TickInterval < 0 {
		return errors.New("defense: negative TickInterval")
	}
	return nil
}

// Stats are the engine's monotonic counters.
type Stats struct {
	// SpoofVerdicts / FenceVerdicts / TrackVerdicts count ingested
	// evidence.
	SpoofVerdicts uint64
	FenceVerdicts uint64
	TrackVerdicts uint64
	// Quarantines counts entries into the quarantine state; NullSteers
	// counts escalations to the null-steer countermeasure.
	Quarantines uint64
	NullSteers  uint64
	// Releases counts all releases back to allow, split by cause
	// (Releases == Decay + TTL + Operator + Evicted releases).
	Releases         uint64
	DecayReleases    uint64
	TTLReleases      uint64
	OperatorReleases uint64
	EvictedReleases  uint64
	// SpeedFlags counts implausible-velocity track updates.
	SpeedFlags uint64
	// Evicted counts threat entries displaced by MaxClients.
	Evicted uint64
	// Directives counts directives emitted.
	Directives uint64
}

type counters struct {
	spoof, fence, track                         uint64
	quarantines, nullSteers                     uint64
	releases, decayRel, ttlRel, opRel, evictRel uint64
	speedFlags, evicted, directives             uint64
}

func (c *counters) add(o counters) {
	c.spoof += o.spoof
	c.fence += o.fence
	c.track += o.track
	c.quarantines += o.quarantines
	c.nullSteers += o.nullSteers
	c.releases += o.releases
	c.decayRel += o.decayRel
	c.ttlRel += o.ttlRel
	c.opRel += o.opRel
	c.evictRel += o.evictRel
	c.speedFlags += o.speedFlags
	c.evicted += o.evicted
	c.directives += o.directives
}

// Engine is the sharded threat engine. Safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*dshard

	wheel  *timingwheel.Wheel
	tmr    timingwheel.Timer
	closed atomic.Bool
}

// New builds an Engine from cfg (zero fields defaulted, then
// validated).
func New(cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		shards: make([]*dshard, cfg.Shards),
	}
	perShard := (cfg.MaxClients + cfg.Shards - 1) / cfg.Shards
	for i := range e.shards {
		e.shards[i] = &dshard{
			threats:    make(map[wifi.Addr]*threat),
			maxClients: perShard,
		}
	}
	// Periodic decay/TTL sweep on the shared hierarchical timing wheel
	// (see internal/timingwheel): self-rescheduling timer, no goroutine.
	e.wheel = timingwheel.Acquire()
	e.tmr.Fn = func() {
		if e.closed.Load() {
			return
		}
		e.Sweep(e.cfg.Clock())
		if !e.closed.Load() {
			e.wheel.Schedule(&e.tmr, e.cfg.TickInterval)
		}
	}
	e.wheel.Schedule(&e.tmr, cfg.TickInterval)
	return e, nil
}

// MustNew is New for static configs known to be valid; it panics on a
// Validate failure.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Close stops the sweeper. In-flight reports complete; no further
// directives are emitted.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.wheel.StopWait(&e.tmr)
	timingwheel.Release(e.wheel)
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

func (e *Engine) shardFor(mac wifi.Addr) *dshard {
	return e.shards[mac.Hash()%uint32(len(e.shards))]
}

// emit hands directives to the configured sink outside all locks.
func (e *Engine) emit(ds []Directive) {
	if e.cfg.Emit == nil {
		return
	}
	for _, d := range ds {
		e.cfg.Emit(d)
	}
}

// ReportSpoof ingests one scored signature verdict. Accepted verdicts
// refresh an *existing* threat entry's evidence without adding score —
// for an unknown MAC they are a no-op, so the fleet's clean traffic
// does not churn threat entries; flagged ones add
// SpoofWeight * (1 + severity).
func (e *Engine) ReportSpoof(v SpoofVerdict) {
	if e.closed.Load() {
		return
	}
	now := e.cfg.Clock()
	s := e.shardFor(v.MAC)
	s.mu.Lock()
	s.ctr.spoof++
	if !v.Flagged && s.threats[v.MAC] == nil {
		s.mu.Unlock()
		return
	}
	th, ds := s.touch(e, v.MAC, now)
	th.decayTo(now, e.cfg.Policy.HalfLife)
	th.lastAP, th.stage = v.AP, v.Stage
	th.lastDistance, th.lastThreshold = v.Distance, v.Threshold
	if v.Trace != 0 {
		th.lastTrace = v.Trace
	}
	if v.HasBearing {
		th.bearingDeg, th.hasBearing = v.BearingDeg, true
	}
	if v.Flagged {
		th.flags++
		th.score += e.cfg.Policy.SpoofWeight * (1 + math.Min(v.Severity(), 1))
	}
	ds = append(ds, e.transition(s, th, now, v.AP)...)
	s.unlockAndEmit(e, ds)
}

// ReportFence ingests one fused fence decision. Drops add FenceWeight
// (halved when the decision was forced at a deadline); the fused
// position refreshes an existing threat's last known location. Allowed
// decisions for unknown MACs are a no-op — the fusion hot path must
// not churn threat entries for legitimate clients.
func (e *Engine) ReportFence(v FenceVerdict) {
	if e.closed.Load() {
		return
	}
	now := e.cfg.Clock()
	s := e.shardFor(v.MAC)
	s.mu.Lock()
	s.ctr.fence++
	if v.Allowed && s.threats[v.MAC] == nil {
		s.mu.Unlock()
		return
	}
	th, ds := s.touch(e, v.MAC, now)
	th.decayTo(now, e.cfg.Policy.HalfLife)
	th.pos, th.hasPos = v.Pos, true
	if v.Trace != 0 {
		th.lastTrace = v.Trace
	}
	if !v.Allowed {
		th.fenceDrops++
		w := e.cfg.Policy.FenceWeight
		if v.Forced {
			w /= 2
		}
		th.score += w
	}
	ds = append(ds, e.transition(s, th, now, "fence")...)
	s.unlockAndEmit(e, ds)
}

// ReportTrack ingests one mobility-track update: the position refreshes
// an existing threat's location, and a speed past Policy.MaxSpeedMS
// (two radios sharing a MAC cannot move like one) adds SpeedWeight.
// Plausible updates for unknown MACs are a no-op, like ReportFence.
func (e *Engine) ReportTrack(v TrackVerdict) {
	if e.closed.Load() {
		return
	}
	anomalous := false
	if max := e.cfg.Policy.MaxSpeedMS; max >= 0 {
		anomalous = math.Hypot(v.Vel.X, v.Vel.Y) > max
	}
	now := e.cfg.Clock()
	s := e.shardFor(v.MAC)
	s.mu.Lock()
	s.ctr.track++
	if !anomalous && s.threats[v.MAC] == nil {
		s.mu.Unlock()
		return
	}
	th, ds := s.touch(e, v.MAC, now)
	th.decayTo(now, e.cfg.Policy.HalfLife)
	th.pos, th.hasPos = v.Pos, true
	if v.Trace != 0 {
		th.lastTrace = v.Trace
	}
	if anomalous {
		th.speedFlags++
		s.ctr.speedFlags++
		th.score += e.cfg.Policy.SpeedWeight
	}
	ds = append(ds, e.transition(s, th, now, "track")...)
	s.unlockAndEmit(e, ds)
}

// Release is the operator path: drop the client back to allow
// immediately, zeroing its score, and emit a release directive if a
// countermeasure was active. Returns whether the MAC was known.
func (e *Engine) Release(mac wifi.Addr) bool {
	if e.closed.Load() {
		return false
	}
	now := e.cfg.Clock()
	s := e.shardFor(mac)
	s.mu.Lock()
	th, ok := s.threats[mac]
	if !ok {
		s.mu.Unlock()
		return false
	}
	var ds []Directive
	th.score = 0
	th.updated = now
	if th.state != StateAllow {
		s.ctr.opRel++
		ds = append(ds, e.release(s, th, now, "operator"))
	}
	s.unlockAndEmit(e, ds)
	return true
}

// State returns the live threat state for one MAC (score decayed to
// now; reads do not mutate the stored score).
func (e *Engine) State(mac wifi.Addr) (ClientThreat, bool) {
	now := e.cfg.Clock()
	s := e.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	th, ok := s.threats[mac]
	if !ok {
		return ClientThreat{}, false
	}
	return th.snapshot(now, e.cfg.Policy.HalfLife), true
}

// Snapshot returns every tracked client's threat state. Consistent per
// shard, not across shards (the registry-snapshot contract).
func (e *Engine) Snapshot() []ClientThreat {
	now := e.cfg.Clock()
	var out []ClientThreat
	for _, s := range e.shards {
		s.mu.Lock()
		for _, th := range s.threats {
			out = append(out, th.snapshot(now, e.cfg.Policy.HalfLife))
		}
		s.mu.Unlock()
	}
	return out
}

// Quarantined returns the threat state of every client currently in
// quarantine.
func (e *Engine) Quarantined() []ClientThreat {
	now := e.cfg.Clock()
	var out []ClientThreat
	for _, s := range e.shards {
		s.mu.Lock()
		for _, th := range s.threats {
			if th.state == StateQuarantine {
				out = append(out, th.snapshot(now, e.cfg.Policy.HalfLife))
			}
		}
		s.mu.Unlock()
	}
	return out
}

// StateCounts reports how many tracked clients sit in each threat
// state right now — the live gauge behind the ops surface's
// secureangle_defense_clients series (a quarantine storm shows up as
// the StateQuarantine count spiking).
func (e *Engine) StateCounts() (allow, monitor, quarantine int) {
	for _, s := range e.shards {
		s.mu.Lock()
		for _, th := range s.threats {
			switch th.state {
			case StateQuarantine:
				quarantine++
			case StateMonitor:
				monitor++
			default:
				allow++
			}
		}
		s.mu.Unlock()
	}
	return allow, monitor, quarantine
}

// ClientCount reports tracked threat entries across all shards.
func (e *Engine) ClientCount() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += len(s.threats)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the engine counters (aggregated across shards).
func (e *Engine) Stats() Stats {
	var c counters
	for _, s := range e.shards {
		s.mu.Lock()
		c.add(s.ctr)
		s.mu.Unlock()
	}
	return Stats{
		SpoofVerdicts:    c.spoof,
		FenceVerdicts:    c.fence,
		TrackVerdicts:    c.track,
		Quarantines:      c.quarantines,
		NullSteers:       c.nullSteers,
		Releases:         c.releases,
		DecayReleases:    c.decayRel,
		TTLReleases:      c.ttlRel,
		OperatorReleases: c.opRel,
		EvictedReleases:  c.evictRel,
		SpeedFlags:       c.speedFlags,
		Evicted:          c.evicted,
		Directives:       c.directives,
	}
}

// Sweep advances time-driven transitions: score decay below the release
// floor de-escalates (respecting MinQuarantine), QuarantineTTL expiry
// force-releases, and fully-decayed allow entries are dropped. The
// internal ticker calls it every TickInterval; tests call it directly
// with a synthetic clock.
func (e *Engine) Sweep(now time.Time) {
	p := e.cfg.Policy
	for _, s := range e.shards {
		s.mu.Lock()
		var ds []Directive
		// Sweep in MAC order: map iteration order would otherwise decide
		// which of two same-tick transitions emits its directive first,
		// and replay (internal/journal) requires the sequence to be
		// deterministic.
		macs := s.sweepMACs[:0]
		for mac := range s.threats {
			macs = append(macs, mac)
		}
		slices.SortFunc(macs, func(a, b wifi.Addr) int { return bytes.Compare(a[:], b[:]) })
		s.sweepMACs = macs
		for _, mac := range macs {
			th := s.threats[mac]
			th.decayTo(now, p.HalfLife)
			switch th.state {
			case StateQuarantine:
				if p.QuarantineTTL >= 0 && now.Sub(th.since) >= p.QuarantineTTL {
					th.score = 0
					s.ctr.ttlRel++
					ds = append(ds, e.release(s, th, now, "ttl"))
					continue
				}
				if th.score < p.ReleaseScore && now.Sub(th.since) >= p.MinQuarantine {
					s.ctr.decayRel++
					ds = append(ds, e.release(s, th, now, "decay"))
				}
			case StateMonitor:
				if th.score < p.ReleaseScore {
					th.setState(StateAllow, now)
				}
			case StateAllow:
				// Fully decayed and idle: the entry carries no
				// information distinguishable from an unknown MAC — drop
				// it so state stays O(live threats).
				if th.score < 1e-6 {
					s.lruUnlink(th)
					delete(s.threats, mac)
				}
			}
		}
		s.unlockAndEmit(e, ds)
	}
}

// transition applies score-driven escalations for th (shard lock held)
// and returns the directives to emit after unlock.
func (e *Engine) transition(s *dshard, th *threat, now time.Time, reporter string) []Directive {
	p := e.cfg.Policy
	var ds []Directive
	switch th.state {
	case StateAllow, StateMonitor:
		if th.score >= p.QuarantineScore {
			from := th.state
			th.setState(StateQuarantine, now)
			s.ctr.quarantines++
			th.action = ActionQuarantine
			if e.nullSteerReady(th) {
				th.action = ActionNullSteer
				s.ctr.nullSteers++
			}
			s.ctr.directives++
			ds = append(ds, e.quarantineDirective(th, from, reporter))
			e.logf("defense: %v %s -> quarantine (score %.2f, %s)", th.mac, from, th.score, reporter)
		} else if th.state == StateAllow && th.score >= p.MonitorScore {
			th.setState(StateMonitor, now)
			e.logf("defense: %v allow -> monitor (score %.2f, %s)", th.mac, th.score, reporter)
		}
	case StateQuarantine:
		if th.action == ActionQuarantine && e.nullSteerReady(th) {
			th.action = ActionNullSteer
			s.ctr.nullSteers++
			s.ctr.directives++
			ds = append(ds, e.quarantineDirective(th, StateQuarantine, reporter))
			e.logf("defense: %v escalated to null-steer (score %.2f, %s)", th.mac, th.score, reporter)
		}
	}
	return ds
}

// nullSteerReady reports whether th qualifies for the null-steer
// escalation: past the policy bar AND with a direction to null — a
// fused position or a measured bearing. Without either, ordering a
// spatial null would aim it at an arbitrary default bearing.
func (e *Engine) nullSteerReady(th *threat) bool {
	p := e.cfg.Policy
	return p.NullSteerScore >= 0 && th.score >= p.NullSteerScore && (th.hasPos || th.hasBearing)
}

// quarantineDirective builds a countermeasure directive carrying the
// lease TTL: APs self-expire the countermeasure at Policy.QuarantineTTL
// (which postdates every engine-side release), so a lost release frame
// cannot strand it. A disabled TTL (negative: the opt-in permanent
// quarantine) sends no lease.
func (e *Engine) quarantineDirective(th *threat, from State, reporter string) Directive {
	d := th.directive(from, reporter)
	if ttl := e.cfg.Policy.QuarantineTTL; ttl > 0 {
		d.TTL = ttl
	}
	return d
}

// release moves th back to allow and builds the release directive.
// Shard lock held; caller emits.
func (e *Engine) release(s *dshard, th *threat, now time.Time, reporter string) Directive {
	from := th.state
	th.setState(StateAllow, now)
	th.action = ActionAllow
	s.ctr.releases++
	s.ctr.directives++
	e.logf("defense: %v released (%s)", th.mac, reporter)
	return th.directive(from, reporter)
}

// --- shard internals ---

type dshard struct {
	mu         sync.Mutex
	threats    map[wifi.Addr]*threat
	maxClients int
	ctr        counters
	// emitMu serialises directive emission in transition order: it is
	// acquired before mu is released (see unlockAndEmit), so two
	// goroutines that transitioned the same client back-to-back cannot
	// hand their directives to the sink in the wrong order — APs would
	// otherwise settle on the stale state.
	emitMu sync.Mutex
	// Intrusive LRU over threats; head = most recently updated.
	lruHead, lruTail *threat
	// sweepMACs is Sweep's reused buffer of the shard's MACs (under mu).
	// It keeps the shard's peak threat count as capacity, which the
	// maxClients cap bounds: at most maxClients MACs, 6 bytes each.
	sweepMACs []wifi.Addr
}

// unlockAndEmit releases the state lock and emits ds under the shard's
// emission lock, taken while the state lock is still held. Emission
// order therefore matches transition order per shard (and a client's
// MAC always hashes to one shard).
func (s *dshard) unlockAndEmit(e *Engine, ds []Directive) {
	if len(ds) == 0 {
		s.mu.Unlock()
		return
	}
	s.emitMu.Lock()
	s.mu.Unlock()
	e.emit(ds)
	s.emitMu.Unlock()
}

type threat struct {
	mac    wifi.Addr
	state  State
	action Action
	score  float64

	flags, fenceDrops, speedFlags uint64
	lastAP, stage                 string
	lastDistance, lastThreshold   float64
	// lastTrace is the most recent traced evidence's trace ID, stamped
	// into every directive this threat emits.
	lastTrace  uint64
	bearingDeg float64
	hasBearing bool
	pos        geom.Point
	hasPos     bool

	since   time.Time // entered current state
	updated time.Time // last decay anchor

	lruPrev, lruNext *threat
}

func (th *threat) setState(st State, now time.Time) {
	if th.state != st {
		th.state = st
		th.since = now
	}
}

// decayTo folds exponential score decay from the last anchor to now.
func (th *threat) decayTo(now time.Time, halfLife time.Duration) {
	dt := now.Sub(th.updated)
	if dt > 0 {
		th.score *= math.Exp2(-dt.Seconds() / halfLife.Seconds())
	}
	if now.After(th.updated) {
		th.updated = now
	}
}

// decayedScore is decayTo without mutating (read paths).
func (th *threat) decayedScore(now time.Time, halfLife time.Duration) float64 {
	dt := now.Sub(th.updated)
	if dt <= 0 {
		return th.score
	}
	return th.score * math.Exp2(-dt.Seconds()/halfLife.Seconds())
}

func (th *threat) snapshot(now time.Time, halfLife time.Duration) ClientThreat {
	return ClientThreat{
		MAC:           th.mac,
		State:         th.state,
		Action:        th.action,
		Score:         th.decayedScore(now, halfLife),
		Flags:         th.flags,
		FenceDrops:    th.fenceDrops,
		SpeedFlags:    th.speedFlags,
		LastAP:        th.lastAP,
		Stage:         th.stage,
		LastDistance:  th.lastDistance,
		LastThreshold: th.lastThreshold,
		BearingDeg:    th.bearingDeg,
		HasBearing:    th.hasBearing,
		Pos:           th.pos,
		HasPos:        th.hasPos,
		Since:         th.since,
		Updated:       th.updated,
		Trace:         th.lastTrace,
	}
}

func (th *threat) directive(from State, reporter string) Directive {
	return Directive{
		MAC:        th.mac,
		Action:     th.action,
		From:       from,
		To:         th.state,
		Reporter:   reporter,
		BearingDeg: th.bearingDeg,
		HasBearing: th.hasBearing,
		Pos:        th.pos,
		HasPos:     th.hasPos,
		Score:      th.score,
		Distance:   th.lastDistance,
		Threshold:  th.lastThreshold,
		Stage:      th.stage,
		Trace:      th.lastTrace,
	}
}

// touch returns the threat entry for mac, creating it (and evicting the
// LRU entry past the shard cap) as needed, and moves it to the LRU
// head. Shard lock held. An eviction of a non-allow entry yields a
// release directive the caller must emit after unlock — forgetting a
// quarantined client without one would leave its countermeasures
// applied at the APs forever.
func (s *dshard) touch(e *Engine, mac wifi.Addr, now time.Time) (*threat, []Directive) {
	th := s.threats[mac]
	var ds []Directive
	if th == nil {
		if len(s.threats) >= s.maxClients {
			if d, ok := s.evictLRU(e, now); ok {
				ds = append(ds, d)
			}
		}
		th = &threat{mac: mac, since: now, updated: now}
		s.threats[mac] = th
	}
	s.lruMoveToFront(th)
	return th, ds
}

func (s *dshard) lruMoveToFront(th *threat) {
	if s.lruHead == th {
		return
	}
	s.lruUnlink(th)
	th.lruNext = s.lruHead
	if s.lruHead != nil {
		s.lruHead.lruPrev = th
	}
	s.lruHead = th
	if s.lruTail == nil {
		s.lruTail = th
	}
}

func (s *dshard) lruUnlink(th *threat) {
	if th.lruPrev != nil {
		th.lruPrev.lruNext = th.lruNext
	}
	if th.lruNext != nil {
		th.lruNext.lruPrev = th.lruPrev
	}
	if s.lruHead == th {
		s.lruHead = th.lruNext
	}
	if s.lruTail == th {
		s.lruTail = th.lruPrev
	}
	th.lruPrev, th.lruNext = nil, nil
}

// evictLRU drops the least-recently-updated threat entry. Shard lock
// held. Evicting an entry under an active countermeasure returns the
// release directive the caller emits after unlock: the engine is about
// to forget this client, so the fleet's countermeasures must not
// outlive the state that justified them.
func (s *dshard) evictLRU(e *Engine, now time.Time) (Directive, bool) {
	victim := s.lruTail
	if victim == nil {
		return Directive{}, false
	}
	s.lruUnlink(victim)
	delete(s.threats, victim.mac)
	s.ctr.evicted++
	e.logf("defense: evicted threat entry %v (state %s) at MaxClients", victim.mac, victim.state)
	if victim.state == StateAllow {
		return Directive{}, false
	}
	s.ctr.evictRel++
	return e.release(s, victim, now, "evicted"), true
}
