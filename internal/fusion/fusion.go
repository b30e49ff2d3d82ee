// Package fusion is the controller's bearing-fusion engine: AP reports
// of the same transmission — one (MAC, sequence-number) key — are
// collected until enough geometrically-diverse bearings exist to
// triangulate a position and apply the virtual fence.
//
// The engine replaces the seed controller's three unbounded maps under
// one mutex with a bounded, sharded design built for the ROADMAP's
// "millions of users" target:
//
//   - State is sharded by MAC (FNV-1a, the same pattern as core's
//     signature registry), so concurrent AP connections ingesting
//     unrelated clients never contend on one lock.
//   - Decided (MAC, seq) dedup state is a per-client 64-entry sliding
//     window over sequence numbers — O(1) per client — instead of a map
//     that retains every key ever fused.
//   - Pending entries that never reach MinAPs bearings (a client only
//     one AP can hear) expire after PendingTTL instead of leaking; the
//     seed only armed a timer *after* the MinAPs threshold.
//   - A hard MaxClients cap evicts the least-recently-active client,
//     and MaxPendingPerClient bounds each client's in-flight
//     transmissions, so hostile MAC/seq churn cannot grow state.
//   - A client's in-flight transmissions hang off it on an intrusive
//     FIFO threaded through the pending entries themselves (looked up
//     by a walk of at most MaxPendingPerClient entries), and its track
//     filter is held inline, so each client is one allocation.
//     Insertion order makes pending eviction deterministic: the
//     earliest-inserted entry goes, even when a batch shares one clock
//     reading, so a journal replay evicts what the live run did.
//   - All deadlines (decision timeouts and TTLs) live in two per-shard
//     FIFO queues — both durations are constants, so creation order is
//     deadline order — swept periodically by a self-rescheduling timer
//     on the shared hierarchical timing wheel (internal/timingwheel)
//     instead of a time.Timer per key or a ticker goroutine per engine.
//     Entries unlink in O(1) when they decide, so the queues hold only
//     live pendings.
//
// Each client additionally carries an alpha-beta track.Filter fed by
// its fused positions, so the engine maintains live mobility traces
// (the paper's section 5 scenario) queryable via Track and Snapshot.
package fusion

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/timingwheel"
	"secureangle/internal/track"
	"secureangle/internal/wifi"
)

// Defaults for zero Config fields.
const (
	DefaultShards              = 16
	DefaultMinAPs              = 2
	DefaultDecisionTimeout     = time.Second
	DefaultPendingTTL          = 10 * time.Second
	DefaultMinDiversityDeg     = 15.0
	DefaultMaxClients          = 65536
	DefaultMaxPendingPerClient = 8
	DefaultTickInterval        = 50 * time.Millisecond
)

// seqWindow is the per-client sliding dedup window: a decision for
// (MAC, s) suppresses re-fusion of any seq in [s-63, s]. Sequence
// numbers older than the window are treated as duplicates — the price
// of O(1) dedup state per client.
const seqWindow = 64

// seqResetJump is the backward distance past which a sequence number
// is read as a counter reset rather than a stale replay: real 802.11
// sequence counters are 12-bit and wrap 4095 -> 0, which must not
// blacklist the client forever. A reset reinitialises the window.
const seqResetJump = 4 * seqWindow

// Config tunes an Engine. Zero fields take the defaults above; Validate
// rejects contradictions (Config-style, like core.Config).
type Config struct {
	// Shards is the lock-striping factor over MACs.
	Shards int
	// MinAPs is the number of distinct AP bearings required per decision.
	MinAPs int
	// DecisionTimeout bounds how long a geometrically-degenerate pending
	// decision waits for a more diverse bearing before fusing what it has.
	DecisionTimeout time.Duration
	// PendingTTL bounds how long a sub-MinAPs entry may wait for more
	// bearings before it is expired (the seed leaked these forever).
	PendingTTL time.Duration
	// MinDiversityDeg is the angular-diversity threshold of the
	// geometric-dilution guard: some pair of bearing lines must cross at
	// no less than this many degrees, or the decision is held for
	// DecisionTimeout. Zero means the default 15; negative disables the
	// guard entirely.
	MinDiversityDeg float64
	// MaxClients caps tracked clients across all shards; the
	// least-recently-active client is evicted beyond it.
	MaxClients int
	// MaxPendingPerClient caps one client's in-flight transmissions; the
	// oldest pending entry is evicted beyond it.
	MaxPendingPerClient int
	// TickInterval is the coarse deadline-sweep period. Expiries and
	// forced decisions land within one tick of their deadline.
	TickInterval time.Duration
	// TrackAlpha/TrackBeta are the mobility filter gains (zero takes the
	// indoor-walking defaults 0.5/0.3).
	TrackAlpha, TrackBeta float64

	// Fence decides fused positions. Required.
	Fence *locate.Fence
	// APCount, when set, reports the number of registered APs: a pending
	// decision every registered AP contributed to is fused even without
	// angular diversity (waiting cannot improve it). Nil means unknown —
	// the guard then always waits for diversity or the timeout.
	APCount func() int
	// Emit receives every fused decision with the client's track state
	// as the decision left it (captured under the shard lock), called
	// outside all shard locks. Nil discards decisions (tracking still
	// updates).
	Emit func(Decision, TrackState)
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)

	// Clock overrides time.Now. Tests and the journal's deterministic
	// replay (internal/journal) drive it with synthetic or recorded
	// timestamps; nil means wall time.
	Clock func() time.Time
}

// WithDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) WithDefaults() Config {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MinAPs == 0 {
		cfg.MinAPs = DefaultMinAPs
	}
	if cfg.DecisionTimeout == 0 {
		cfg.DecisionTimeout = DefaultDecisionTimeout
	}
	if cfg.PendingTTL == 0 {
		cfg.PendingTTL = DefaultPendingTTL
	}
	if cfg.MinDiversityDeg == 0 {
		cfg.MinDiversityDeg = DefaultMinDiversityDeg
	}
	if cfg.MaxClients == 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	if cfg.MaxPendingPerClient == 0 {
		cfg.MaxPendingPerClient = DefaultMaxPendingPerClient
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	// track.NewFilter treats 0 gains as literal, so default them here.
	if cfg.TrackAlpha == 0 {
		cfg.TrackAlpha = 0.5
	}
	if cfg.TrackBeta == 0 {
		cfg.TrackBeta = 0.3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// Validate reports contradictions in an already-defaulted Config.
func (cfg Config) Validate() error {
	if cfg.Fence == nil {
		return errors.New("fusion: Config.Fence is required")
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("fusion: Shards %d < 1", cfg.Shards)
	}
	if cfg.MinAPs < 2 {
		return fmt.Errorf("fusion: MinAPs %d < 2 (triangulation needs two bearings)", cfg.MinAPs)
	}
	if cfg.DecisionTimeout < 0 || cfg.PendingTTL < 0 || cfg.TickInterval < 0 {
		return errors.New("fusion: negative timeout")
	}
	if math.IsNaN(cfg.MinDiversityDeg) || cfg.MinDiversityDeg >= 90 {
		return fmt.Errorf("fusion: MinDiversityDeg %v unreachable (pairwise line angles top out at 90)", cfg.MinDiversityDeg)
	}
	if cfg.MaxClients < 1 {
		return fmt.Errorf("fusion: MaxClients %d < 1", cfg.MaxClients)
	}
	if cfg.MaxPendingPerClient < 1 {
		return fmt.Errorf("fusion: MaxPendingPerClient %d < 1", cfg.MaxPendingPerClient)
	}
	return nil
}

// Bearing is one AP's report of one transmission, with the AP's
// position resolved by the caller (the controller's registry) at report
// time.
type Bearing struct {
	AP    string
	APPos geom.Point
	MAC   wifi.Addr
	Seq   uint64
	Deg   float64
	// Trace is the packet's 64-bit trace ID, minted at the observing AP
	// and carried through the decision pipeline (0 = untraced).
	Trace uint64
}

// Decision is one fused fence outcome.
type Decision struct {
	MAC      wifi.Addr
	Seq      uint64
	Pos      geom.Point
	Decision locate.Decision
	// APs lists the access points whose bearings contributed.
	APs []string
	// Forced marks a decision fused at the DecisionTimeout (or TTL)
	// deadline without reaching angular diversity.
	Forced bool
	// Trace is the trace ID of the first traced bearing that joined the
	// fused transmission (0 when no contributing report carried one).
	Trace uint64
}

// TrackState is one client's live mobility-trace state: the alpha-beta
// filtered position and velocity after its latest fused fix.
type TrackState struct {
	MAC wifi.Addr
	// Pos is the filtered position (metres).
	Pos geom.Point
	// Vel is the filtered velocity estimate (m/s).
	Vel geom.Point
	// Fixes counts fused positions folded into the track.
	Fixes uint64
	// LastSeq is the sequence number of the latest fix.
	LastSeq uint64
	// Updated is when the latest fix arrived.
	Updated time.Time
	// Decision is the latest fence outcome.
	Decision locate.Decision
}

// Stats are the engine's monotonic counters.
type Stats struct {
	// Ingested counts bearings accepted into a shard.
	Ingested uint64
	// Decisions counts fused decisions emitted.
	Decisions uint64
	// DupDropped counts bearings for already-decided (MAC, seq) keys.
	DupDropped uint64
	// PendingExpired counts sub-MinAPs entries dropped at PendingTTL.
	PendingExpired uint64
	// PendingEvicted counts entries displaced by MaxPendingPerClient.
	PendingEvicted uint64
	// ClientsEvicted counts clients displaced by MaxClients.
	ClientsEvicted uint64
	// ForcedTimeouts counts decisions fused at a deadline without
	// angular diversity.
	ForcedTimeouts uint64
	// FuseErrors counts pending entries dropped because triangulation
	// failed (degenerate geometry at a forced deadline).
	FuseErrors uint64
}

// counters are per-shard statistics, mutated under the shard lock so
// the ingest hot path never touches a shared atomic cache line.
type counters struct {
	ingested, decisions, dupDropped    uint64
	pendingExpired, pendingEvicted     uint64
	clientsEvicted, forced, fuseErrors uint64
}

func (c *counters) add(o counters) {
	c.ingested += o.ingested
	c.decisions += o.decisions
	c.dupDropped += o.dupDropped
	c.pendingExpired += o.pendingExpired
	c.pendingEvicted += o.pendingEvicted
	c.clientsEvicted += o.clientsEvicted
	c.forced += o.forced
	c.fuseErrors += o.fuseErrors
}

// Engine is the sharded fusion engine. Safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*shard
	// pendingPool recycles pendingTx values (and their bearing maps)
	// across transmissions.
	pendingPool sync.Pool

	// batchPool recycles IngestBatch grouping scratch across batches.
	batchPool sync.Pool

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
		shards: make([]*shard, cfg.Shards),
	}
	e.pendingPool.New = func() any {
		return &pendingTx{bearings: make(map[string]apBearing, cfg.MinAPs)}
	}
	// Per-shard client cap, rounded up so the global cap is respected
	// within a shard's worth of slack under adversarial skew.
	perShard := (cfg.MaxClients + cfg.Shards - 1) / cfg.Shards
	for i := range e.shards {
		e.shards[i] = &shard{
			clients:    make(map[wifi.Addr]*client),
			ttlList:    pendingList{which: ttlLinks},
			decideList: pendingList{which: decideLinks},
			maxClients: perShard,
		}
	}
	// Periodic deadline sweep on the shared hierarchical timing wheel:
	// the timer reschedules itself from its own callback, so the engine
	// owns no goroutine and an idle engine costs one O(1) wheel entry.
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
// Validate failure (the core.NewAP contract).
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Close stops the deadline sweeper. In-flight Ingest calls complete;
// pending entries are abandoned without decisions.
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

// shardFor hashes a MAC onto its shard (FNV-1a, the signature-registry
// pattern).
func (e *Engine) shardFor(mac wifi.Addr) *shard {
	return e.shards[mac.Hash()%uint32(len(e.shards))]
}

// Ingest records one bearing and fuses a decision once MinAPs distinct
// APs have reported the same (MAC, seq) with acceptable geometry; the
// decision goes to cfg.Emit. It is IngestBatch of one, on a stack
// array: there is no separate serial path. After Close it drops the
// bearing: the deadline sweeper is gone, so accepting new pendings
// would leave them unexpirable.
func (e *Engine) Ingest(b Bearing) {
	one := [1]Bearing{b}
	e.IngestBatch(one[:], nil)
}

// batchScratch is the pooled grouping state one IngestBatch borrows:
// the shard assignment and shard-grouped order of the batch's
// bearings, and the decisions collected under the shard locks.
type batchScratch struct {
	shardOf []int32
	counts  []int32
	order   []int32
	decs    []indexedDecision
}

// indexedDecision is one decision collected under a shard lock for
// delivery after unlock, with its decision-time track state and (in a
// batch) the input index of the bearing that completed it.
type indexedDecision struct {
	idx int32
	d   Decision
	ts  TrackState
}

// deliver hands one collected decision to the batch's emit, or to
// cfg.Emit when the batch has none.
func (e *Engine) deliver(emit BatchEmit, id *indexedDecision) {
	if emit != nil {
		emit(int(id.idx), id.d, id.ts, true)
	} else if e.cfg.Emit != nil {
		e.cfg.Emit(id.d, id.ts)
	}
}

// BatchEmit receives one batch decision: the input index of the
// bearing that completed it, the decision itself, and the client's
// track state as the decision left it — the state Config.Emit receives
// too. tracked is always true: every fused decision advances its
// client's track. The state is captured under the shard lock at
// decision time, never one already advanced by later same-MAC bearings
// in the batch.
type BatchEmit func(i int, d Decision, t TrackState, tracked bool)

// IngestBatch records a slice of bearings, grouping them by shard so
// each touched shard's lock is taken once per batch instead of once
// per bearing. Within a shard, bearings are applied in input order, so
// the decisions produced are exactly those of len(bs) one-bearing
// batches sharing one clock reading; they are delivered outside all
// shard locks, in input order. emit, when non-nil, receives each
// decision with the input index of the bearing that completed it and
// overrides cfg.Emit for the batch; with a nil emit, decisions go to
// cfg.Emit as usual.
func (e *Engine) IngestBatch(bs []Bearing, emit BatchEmit) {
	if e.closed.Load() || len(bs) == 0 {
		return
	}
	now := e.cfg.Clock()
	nsh := int32(len(e.shards))
	if len(bs) < 2*int(nsh) {
		// Small batch (the common shape when a partition set splits one
		// wire batch several ways): the O(shards) grouping passes cost
		// more than they save until the batch is a couple of bearings
		// deep per shard. Walk in input order, coalescing the lock
		// across consecutive same-shard bearings. Shards partition the
		// MAC space, so within-shard input order — all that decision
		// identity needs — is preserved without the sort.
		var buf [8]indexedDecision
		decs := buf[:0]
		var cur *shard
		for i := range bs {
			s := e.shardFor(bs[i].MAC)
			if s != cur {
				if cur != nil {
					cur.mu.Unlock()
				}
				s.mu.Lock()
				cur = s
			}
			if d, ts, ok := e.ingestLocked(s, bs[i], now); ok {
				decs = append(decs, indexedDecision{idx: int32(i), d: d, ts: ts})
			}
		}
		if cur != nil {
			cur.mu.Unlock()
		}
		for i := range decs {
			e.deliver(emit, &decs[i])
		}
		return
	}
	sc, _ := e.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	if cap(sc.shardOf) < len(bs) {
		sc.shardOf = make([]int32, len(bs))
		sc.order = make([]int32, len(bs))
	}
	if cap(sc.counts) < int(nsh)+1 {
		sc.counts = make([]int32, nsh+1)
	}
	shardOf, order := sc.shardOf[:len(bs)], sc.order[:len(bs)]
	counts := sc.counts[:nsh+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := range bs {
		sh := int32(bs[i].MAC.Hash() % uint32(nsh))
		shardOf[i] = sh
		counts[sh+1]++
	}
	for sh := int32(0); sh < nsh; sh++ {
		counts[sh+1] += counts[sh]
	}
	// Stable counting-sort scatter: order holds the batch's bearing
	// indices grouped by shard, input order preserved within a shard.
	next := counts[:nsh]
	for i := range bs {
		sh := shardOf[i]
		order[next[sh]] = int32(i)
		next[sh]++
	}
	// shardOf is dead once the scatter is done; reuse it as an input
	// index -> decision slot map, which recovers input-order emission by
	// a linear walk instead of sorting the collected decisions (each
	// bearing completes at most one decision).
	slot := shardOf
	for i := range slot {
		slot[i] = -1
	}
	decs := sc.decs[:0]
	start := int32(0)
	for sh := int32(0); sh < nsh; sh++ {
		end := counts[sh] // next[sh] advanced to the run's end above
		if end == start {
			continue
		}
		s := e.shards[sh]
		s.mu.Lock()
		for _, idx := range order[start:end] {
			if d, ts, ok := e.ingestLocked(s, bs[idx], now); ok {
				slot[idx] = int32(len(decs))
				decs = append(decs, indexedDecision{idx: idx, d: d, ts: ts})
			}
		}
		s.mu.Unlock()
		start = end
	}
	if len(decs) > 0 {
		for _, k := range slot {
			if k >= 0 {
				e.deliver(emit, &decs[k])
			}
		}
	}
	sc.decs = decs[:0]
	e.batchPool.Put(sc)
}

func (e *Engine) ingestLocked(s *shard, b Bearing, now time.Time) (Decision, TrackState, bool) {
	s.ctr.ingested++
	cl := s.touch(e, b.MAC)
	if cl.seen(b.Seq) {
		s.ctr.dupDropped++
		return Decision{}, TrackState{}, false
	}
	p := cl.pendingFor(b.Seq)
	if p == nil {
		if int(cl.pending.n) >= e.cfg.MaxPendingPerClient {
			s.evictOldestPending(e, cl)
		}
		p = e.pendingPool.Get().(*pendingTx)
		p.cl, p.seq, p.created = cl, b.Seq, now
		p.trace = 0
		cl.pending.pushTail(p)
		s.ttlList.pushTail(p)
	}
	if p.trace == 0 {
		p.trace = b.Trace
	}
	p.bearings[b.AP] = apBearing{pos: b.APPos, deg: b.Deg}
	if len(p.bearings) < e.cfg.MinAPs {
		return Decision{}, TrackState{}, false
	}

	// Geometric dilution guard: when every pair of bearing lines is
	// nearly parallel (a client close to the line between two APs), the
	// intersection is ill-conditioned and can land tens of metres away.
	// Hold the decision until a bearing with angular diversity arrives —
	// unless every registered AP has already reported, or a deadline
	// forces the best-available fix.
	if len(p.bearings) < e.apCount() && !e.diverse(p) {
		if !p.armed {
			p.armed = true
			p.armedAt = now
			s.decideList.pushTail(p)
		}
		return Decision{}, TrackState{}, false
	}
	return e.finalizeLocked(s, p, now, false)
}

// apCount resolves the registered-AP shortcut bound; unknown means the
// shortcut never fires.
func (e *Engine) apCount() int {
	if e.cfg.APCount == nil {
		return math.MaxInt
	}
	if n := e.cfg.APCount(); n > 0 {
		return n
	}
	return math.MaxInt
}

// diverse checks angular diversity of a pending entry's bearings.
func (e *Engine) diverse(p *pendingTx) bool {
	if e.cfg.MinDiversityDeg < 0 {
		return true
	}
	for a1, b1 := range p.bearings {
		for a2, b2 := range p.bearings {
			if a1 >= a2 {
				continue
			}
			// Bearings compare modulo 180: a line and its reverse are
			// the same line.
			d := b1.deg - b2.deg
			for d < 0 {
				d += 180
			}
			for d >= 180 {
				d -= 180
			}
			if d > 90 {
				d = 180 - d
			}
			if d >= e.cfg.MinDiversityDeg {
				return true
			}
		}
	}
	return false
}

// finalizeLocked fuses a pending entry, records the seq in the dedup
// window, and advances the client's mobility track. Shard lock held;
// the caller emits the returned decision, with the track state it just
// advanced, after unlock.
func (e *Engine) finalizeLocked(s *shard, p *pendingTx, now time.Time, forced bool) (Decision, TrackState, bool) {
	// Capture everything needed after dropPending now: the pool may hand
	// p to another shard the moment it is dropped.
	cl, seq, trace := p.cl, p.seq, p.trace
	obs := s.obsScratch[:0]
	// Fuse in AP-name order: map iteration order would otherwise leak
	// into the least-squares accumulation (and the APs list), making the
	// fused position vary in the last float bits between runs — replay
	// (internal/journal) requires byte-identical decisions.
	aps := make([]string, 0, len(p.bearings))
	for name := range p.bearings {
		aps = append(aps, name)
	}
	sort.Strings(aps)
	for _, name := range aps {
		b := p.bearings[name]
		obs = append(obs, locate.BearingObs{AP: b.pos, BearingDeg: b.deg})
	}
	s.obsScratch = obs[:0] // keep any growth for the next decision
	dec, pos, err := e.cfg.Fence.Decide(obs)
	if err != nil {
		s.ctr.fuseErrors++
		e.logf("fusion: fuse %v seq %d: %v", cl.mac, seq, err)
		// The dedup window is NOT marked on failure, so the seq can be
		// rescued: an ingest-path failure keeps the entry pending for a
		// later, more diverse bearing (the seed behaviour, but with the
		// TTL still bounding it); a deadline-path failure drops the
		// entry — its wait is up — without poisoning future reports.
		if forced {
			s.dropPending(e, p)
		}
		return Decision{}, TrackState{}, false
	}
	s.dropPending(e, p)
	cl.mark(seq)
	s.ctr.decisions++
	if forced {
		s.ctr.forced++
	}
	dt := 0.0
	if cl.fixes > 0 {
		dt = now.Sub(cl.lastFix).Seconds()
	}
	cl.trackPos = cl.filter.Update(pos, dt)
	cl.lastFix = now
	cl.fixes++
	cl.lastSeq = seq
	cl.lastDecision = dec
	return Decision{MAC: cl.mac, Seq: seq, Pos: pos, Decision: dec, APs: aps, Forced: forced, Trace: trace}, cl.state(), true
}

// Sweep processes every deadline due at or before now: sub-MinAPs
// entries past their TTL are expired, and entries held for diversity
// past their decision timeout are force-fused. The internal ticker
// calls this every TickInterval; tests call it directly with a
// synthetic clock.
func (e *Engine) Sweep(now time.Time) {
	for _, s := range e.shards {
		s.mu.Lock()
		var out []indexedDecision
		// Decision deadlines first (they are the shorter duration):
		// every armed entry already has >= MinAPs bearings.
		for p := s.decideList.head; p != nil; p = s.decideList.head {
			if now.Before(p.armedAt.Add(e.cfg.DecisionTimeout)) {
				break
			}
			if d, ts, ok := e.finalizeLocked(s, p, now, true); ok {
				out = append(out, indexedDecision{d: d, ts: ts})
			}
		}
		for p := s.ttlList.head; p != nil; p = s.ttlList.head {
			if now.Before(p.created.Add(e.cfg.PendingTTL)) {
				break
			}
			if len(p.bearings) >= e.cfg.MinAPs {
				// Viable but still held at TTL (the decision deadline
				// postdates it): fuse what we have rather than discard.
				if d, ts, ok := e.finalizeLocked(s, p, now, true); ok {
					out = append(out, indexedDecision{d: d, ts: ts})
				}
				continue
			}
			cl, seq, n := p.cl, p.seq, len(p.bearings)
			s.dropPending(e, p)
			s.ctr.pendingExpired++
			e.logf("fusion: expired %v seq %d with %d bearing(s) after %v", cl.mac, seq, n, e.cfg.PendingTTL)
		}
		s.mu.Unlock()
		for i := range out {
			e.deliver(nil, &out[i])
		}
	}
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
		Ingested:       c.ingested,
		Decisions:      c.decisions,
		DupDropped:     c.dupDropped,
		PendingExpired: c.pendingExpired,
		PendingEvicted: c.pendingEvicted,
		ClientsEvicted: c.clientsEvicted,
		ForcedTimeouts: c.forced,
		FuseErrors:     c.fuseErrors,
	}
}

// ShardStats returns per-shard counter snapshots in shard order, plus
// each shard's live client and pending counts folded into the same
// struct positions the aggregate Stats uses. The ops surface exposes
// these as `shard="i"`-labelled series so a hot shard (one MAC range
// absorbing a spoof storm) is visible before it saturates.
func (e *Engine) ShardStats() []Stats {
	out := make([]Stats, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		c := s.ctr
		s.mu.Unlock()
		out[i] = Stats{
			Ingested:       c.ingested,
			Decisions:      c.decisions,
			DupDropped:     c.dupDropped,
			PendingExpired: c.pendingExpired,
			PendingEvicted: c.pendingEvicted,
			ClientsEvicted: c.clientsEvicted,
			ForcedTimeouts: c.forced,
			FuseErrors:     c.fuseErrors,
		}
	}
	return out
}

// ClientCount reports live tracked clients across all shards — the
// bounded-memory invariant is ClientCount <= MaxClients + slack and
// PendingCount <= ClientCount * MaxPendingPerClient, regardless of how
// many packets were ever ingested.
func (e *Engine) ClientCount() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += len(s.clients)
		s.mu.Unlock()
	}
	return n
}

// PendingCount reports in-flight pending transmissions across shards:
// every one sits on its shard's TTL queue, whose length is kept.
func (e *Engine) PendingCount() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += int(s.ttlList.n)
		s.mu.Unlock()
	}
	return n
}

// Track returns the live mobility-trace state for one MAC.
func (e *Engine) Track(mac wifi.Addr) (TrackState, bool) {
	s := e.shardFor(mac)
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := s.clients[mac]
	if cl == nil || cl.fixes == 0 {
		return TrackState{}, false
	}
	return cl.state(), true
}

// Snapshot returns the mobility-trace state of every client with at
// least one fused fix. Consistent per shard, not across shards (the
// registry-snapshot contract).
func (e *Engine) Snapshot() []TrackState {
	var out []TrackState
	for _, s := range e.shards {
		s.mu.Lock()
		for _, cl := range s.clients {
			if cl.fixes > 0 {
				out = append(out, cl.state())
			}
		}
		s.mu.Unlock()
	}
	return out
}

// --- shard internals ---

type apBearing struct {
	pos geom.Point
	deg float64
}

// pendingTx is one in-flight transmission. It is linked into its
// client's in-flight list and its shard's TTL queue from creation, and
// into the decision-deadline queue once armed; every link unlinks in
// O(1) when the entry resolves.
type pendingTx struct {
	bearings map[string]apBearing
	created  time.Time
	armedAt  time.Time
	armed    bool

	cl  *client
	seq uint64
	// trace is the first traced bearing's ID; deterministic because
	// ingest order is (replay order is the recorded order).
	trace uint64

	ttlPrev, ttlNext       *pendingTx
	decidePrev, decideNext *pendingTx
	clPrev, clNext         *pendingTx
}

// pendingLinks selects one of pendingTx's three intrusive link pairs.
type pendingLinks uint8

const (
	ttlLinks pendingLinks = iota
	decideLinks
	clientLinks
)

func (p *pendingTx) links(which pendingLinks) (prev, next **pendingTx) {
	switch which {
	case ttlLinks:
		return &p.ttlPrev, &p.ttlNext
	case decideLinks:
		return &p.decidePrev, &p.decideNext
	}
	return &p.clPrev, &p.clNext
}

// pendingList is an intrusive FIFO of pendingTx over one link pair,
// with its length. Deadlines are constant offsets from push time, so a
// deadline queue's head order is deadline order; a client's list head
// is its earliest-inserted transmission.
type pendingList struct {
	head, tail *pendingTx
	n          int32
	which      pendingLinks
}

func (l *pendingList) pushTail(p *pendingTx) {
	prev, next := p.links(l.which)
	*prev, *next = l.tail, nil
	if l.tail != nil {
		_, tn := l.tail.links(l.which)
		*tn = p
	} else {
		l.head = p
	}
	l.tail = p
	l.n++
}

func (l *pendingList) unlink(p *pendingTx) {
	prev, next := p.links(l.which)
	if *prev != nil {
		_, pn := (*prev).links(l.which)
		*pn = *next
	} else {
		l.head = *next
	}
	if *next != nil {
		np, _ := (*next).links(l.which)
		*np = *prev
	} else {
		l.tail = *prev
	}
	*prev, *next = nil, nil
	l.n--
}

type shard struct {
	mu      sync.Mutex
	clients map[wifi.Addr]*client
	// ttlList holds every pending entry of the shard, so its length is
	// the shard's pending count.
	ttlList    pendingList
	decideList pendingList
	maxClients int
	ctr        counters
	// obsScratch is reused across decisions (Fence.Decide does not
	// retain the slice).
	obsScratch []locate.BearingObs
	// Intrusive LRU list over clients; head = most recently active.
	lruHead, lruTail *client
}

// dropPending unlinks p from its client and both deadline queues and
// recycles it. Shard lock held.
func (s *shard) dropPending(e *Engine, p *pendingTx) {
	p.cl.pending.unlink(p)
	s.ttlList.unlink(p)
	if p.armed {
		s.decideList.unlink(p)
	}
	clear(p.bearings)
	p.armed = false
	p.cl = nil
	e.pendingPool.Put(p)
}

type client struct {
	mac wifi.Addr
	// Anti-replay dedup window: seqHi is the highest decided seq,
	// seqMask bit i marks seqHi-i decided.
	seqInit bool
	seqHi   uint64
	seqMask uint64

	// pending is the client's in-flight transmissions in insertion
	// order, at most MaxPendingPerClient long.
	pending pendingList

	filter       track.Filter
	trackPos     geom.Point
	lastFix      time.Time
	fixes        uint64
	lastSeq      uint64
	lastDecision locate.Decision

	lruPrev, lruNext *client
}

// pendingFor returns cl's in-flight entry for seq, or nil.
func (cl *client) pendingFor(seq uint64) *pendingTx {
	for p := cl.pending.head; p != nil; p = p.clNext {
		if p.seq == seq {
			return p
		}
	}
	return nil
}

func (cl *client) state() TrackState {
	return TrackState{
		MAC:      cl.mac,
		Pos:      cl.trackPos,
		Vel:      cl.filter.Velocity(),
		Fixes:    cl.fixes,
		LastSeq:  cl.lastSeq,
		Updated:  cl.lastFix,
		Decision: cl.lastDecision,
	}
}

// seen reports whether seq was already decided: inside the window the
// bitmap answers; moderately older than the window counts as a stale
// replay (decided); a jump of seqResetJump or more back is a counter
// reset (802.11 wrap) and fuses normally.
func (cl *client) seen(seq uint64) bool {
	if !cl.seqInit || seq > cl.seqHi {
		return false
	}
	d := cl.seqHi - seq
	if d >= seqResetJump {
		return false // counter reset, not a replay
	}
	if d >= seqWindow {
		return true
	}
	return cl.seqMask&(1<<d) != 0
}

// mark records seq as decided in the sliding window (reinitialising it
// on a counter reset, mirroring seen).
func (cl *client) mark(seq uint64) {
	if !cl.seqInit {
		cl.seqInit, cl.seqHi, cl.seqMask = true, seq, 1
		return
	}
	if seq > cl.seqHi {
		if shift := seq - cl.seqHi; shift >= seqWindow {
			cl.seqMask = 0
		} else {
			cl.seqMask <<= shift
		}
		cl.seqHi = seq
		cl.seqMask |= 1
		return
	}
	d := cl.seqHi - seq
	if d >= seqResetJump {
		cl.seqHi, cl.seqMask = seq, 1
		return
	}
	if d < seqWindow {
		cl.seqMask |= 1 << d
	}
}

// touch returns the client for mac, creating it (and evicting the LRU
// client past the shard cap) as needed, and moves it to the LRU head.
// Shard lock held.
func (s *shard) touch(e *Engine, mac wifi.Addr) *client {
	cl := s.clients[mac]
	if cl == nil {
		if len(s.clients) >= s.maxClients {
			s.evictLRU(e)
		}
		cl = &client{
			mac:     mac,
			pending: pendingList{which: clientLinks},
			filter:  *track.NewFilter(e.cfg.TrackAlpha, e.cfg.TrackBeta),
		}
		s.clients[mac] = cl
	}
	s.lruMoveToFront(cl)
	return cl
}

func (s *shard) lruMoveToFront(cl *client) {
	if s.lruHead == cl {
		return
	}
	s.lruUnlink(cl)
	cl.lruNext = s.lruHead
	if s.lruHead != nil {
		s.lruHead.lruPrev = cl
	}
	s.lruHead = cl
	if s.lruTail == nil {
		s.lruTail = cl
	}
}

func (s *shard) lruUnlink(cl *client) {
	if cl.lruPrev != nil {
		cl.lruPrev.lruNext = cl.lruNext
	}
	if cl.lruNext != nil {
		cl.lruNext.lruPrev = cl.lruPrev
	}
	if s.lruHead == cl {
		s.lruHead = cl.lruNext
	}
	if s.lruTail == cl {
		s.lruTail = cl.lruPrev
	}
	cl.lruPrev, cl.lruNext = nil, nil
}

// evictLRU drops the least-recently-active client and its in-flight
// pendings. Shard lock held.
func (s *shard) evictLRU(e *Engine) {
	victim := s.lruTail
	if victim == nil {
		return
	}
	s.lruUnlink(victim)
	delete(s.clients, victim.mac)
	for victim.pending.head != nil {
		s.dropPending(e, victim.pending.head)
	}
	s.ctr.clientsEvicted++
	e.logf("fusion: evicted client %v (%d fixes) at MaxClients", victim.mac, victim.fixes)
}

// evictOldestPending drops cl's earliest-inserted in-flight
// transmission to make room for a new one. Shard lock held.
func (s *shard) evictOldestPending(e *Engine, cl *client) {
	oldest := cl.pending.head
	if oldest == nil {
		return
	}
	seq := oldest.seq
	s.dropPending(e, oldest)
	s.ctr.pendingEvicted++
	e.logf("fusion: evicted pending %v seq %d at MaxPendingPerClient", cl.mac, seq)
}
