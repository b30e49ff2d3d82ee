package netproto

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/bin"
	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/partition"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// FenceDecision is the controller's fused output for one transmission.
type FenceDecision struct {
	MAC      wifi.Addr
	SeqNo    uint64
	Pos      geom.Point
	Decision locate.Decision
	// APs lists the access points whose bearings contributed.
	APs []string
}

// DefaultReadTimeout is the per-connection read deadline Serve applies
// between messages when Controller.ReadTimeout is zero. An agent that
// goes silent for longer is disconnected, so a stalled peer cannot pin
// a handler goroutine (and its Close drain) forever. Healthy agents
// with nothing to report stay connected by calling Agent.Ping within
// this window.
const DefaultReadTimeout = 2 * time.Minute

// SendBacklog caps one session's unsent bytes: a session that falls
// further behind is closed and counted (ControllerStats.SendOverflows).
const SendBacklog = 4 << 20

// Controller fuses AP reports into localisation and fence decisions.
// One goroutine per connection reads messages; fusion state lives in a
// bounded fusion.Engine sharded by client MAC (see package fusion for
// the lifecycle guarantees), built lazily from the exported tuning
// fields on first use — set them before traffic arrives.
type Controller struct {
	Fence *locate.Fence
	// MinAPs is the number of distinct AP bearings required per decision
	// (default 2).
	MinAPs int
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
	// ReadTimeout is the per-connection keepalive read deadline
	// (default DefaultReadTimeout; negative disables deadlines).
	ReadTimeout time.Duration
	// MinDiversityDeg is the angular-diversity threshold of the
	// geometric-dilution guard (0 = the default 15 degrees; negative
	// disables the guard).
	MinDiversityDeg float64
	// DefensePolicy tunes the defense engine's threat state machine —
	// escalation thresholds, score decay, quarantine TTL (zero fields
	// take the package defense defaults). Set it before traffic arrives,
	// like the fusion tuning fields.
	DefensePolicy defense.Policy
	// RequireAuth closes the TCP port to everything but enrolled APs:
	// sessions whose Hello carries no valid enrollment token (an agent
	// that skipped `secureangle enroll`) are rejected at the handshake.
	// Off by default, so unenrolled fleets keep connecting; a presented
	// token must validate even when auth is optional.
	RequireAuth bool
	// SnapshotInterval is the journal's snapshot cadence when WithJournalDir
	// attached one (default DefaultSnapshotInterval; negative disables
	// snapshots entirely — recovery then replays the whole WAL). Between
	// snapshots a crash costs one WAL-tail replay; shorter intervals buy
	// faster restarts for more write amplification.
	SnapshotInterval time.Duration
	// Partitions splits the controller core into N MAC-range partitions
	// (default 1), each with its own fusion engine, defense engine, and
	// — with WithJournalDir — journal stream. The public API is
	// unchanged: Track, Threats, Quarantined, and StatusReport fan in
	// across partitions. Because fusion/defense state is strictly
	// per-MAC, a partitioned controller is decision-identical to the
	// monolith; the engines' per-partition capacity caps (the fusion
	// and defense client caps) apply to each partition, so the
	// effective totals scale with N. Set it
	// before traffic arrives, like the other tuning fields.
	Partitions int
	// Tracer receives the controller's decision-trace spans (ingest,
	// fusion, alert, directive, ack, release) and applies the tail-based
	// retention policy. Nil uses the process-wide trace.Default()
	// recorder, which /traces exposes.
	Tracer *trace.Recorder
	// PprofOps mounts the Go runtime profiling endpoints
	// (/debug/pprof/..., including CPU, heap, and mutex-contention
	// profiles) on the operations handler. Off by default: profiles
	// expose internals and cost a little steady-state bookkeeping, so
	// they are opt-in like the rest of the ops surface. Set it before
	// OpsHandler/ServeOps.
	PprofOps bool

	mu      sync.Mutex
	apPos   map[string]geom.Point
	subs    map[int]chan FenceDecision
	nextSub int
	closed  bool
	// tokens maps enrolled AP names to token digests (see enroll.go);
	// dirSent remembers when each MAC's latest directive was broadcast
	// so an ack can be turned into a latency sample (bounded, see
	// noteDirectiveSent). Both under mu.
	tokens  map[string][sha256.Size]byte
	dirSent map[wifi.Addr]time.Time
	// sessions holds every live session's outbox by name (sessMu).
	sessMu   sync.Mutex
	sessions map[string]apConn

	// opsSrv is the /metrics + /status HTTP server when ServeOps was
	// called (nil otherwise), shut down by Close.
	opsSrv *http.Server
	opsLn  net.Listener

	// parts is the partitioned engine core (one fusion + defense engine
	// pair per MAC-range partition), built lazily on first traffic —
	// both engine kinds together, freezing the tuning fields.
	partsOnce   sync.Once
	parts       atomic.Pointer[partition.Set]
	unknownAP   atomic.Uint64
	observerSeq atomic.Uint64
	// directiveAcks counts applied-countermeasure reports from APs;
	// sendOverflows sessions closed for passing sendBacklog (0 means
	// SendBacklog; tests lower it).
	directiveAcks atomic.Uint64
	sendOverflows atomic.Uint64
	sendBacklog   int

	// The flight recorder (see WithJournal / WithJournalDir): one
	// journal per partition; clk is the engines' time source, pinned to
	// recorded timestamps while recovery replays the WAL tail;
	// recovering suppresses journaling and fan-out of the re-derived
	// events.
	jset       atomic.Pointer[journalSet]
	clk        journal.ReplayClock
	recovering atomic.Bool
	snapDone   chan struct{}
	snapWG     sync.WaitGroup

	// repl tracks live replication sessions (peers that subscribed with
	// a SegmentAck), for the lag gauge and /status.
	replMu sync.Mutex
	repl   map[*replSession]struct{}

	ln     net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewController returns a controller enforcing the given fence.
func NewController(fence *locate.Fence) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	return &Controller{
		Fence:    fence,
		MinAPs:   2,
		apPos:    make(map[string]geom.Point),
		subs:     make(map[int]chan FenceDecision),
		sessions: make(map[string]apConn),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// fusionConfig assembles the engine Config from the controller's
// tuning fields as they stand right now.
func (c *Controller) fusionConfig() fusion.Config {
	return fusion.Config{
		MinAPs:          c.MinAPs,
		MinDiversityDeg: c.MinDiversityDeg,
		Fence:           c.Fence,
		APCount:         c.apCount,
		Emit:            c.emitDecision,
		Logf:            func(format string, args ...any) { c.logf(format, args...) },
		Clock:           c.clk.Now,
	}
}

// nParts resolves the partition count (Partitions <= 0 means 1).
func (c *Controller) nParts() int {
	if c.Partitions <= 0 {
		return 1
	}
	return c.Partitions
}

// partsBuild returns the partitioned engine set, building every
// partition's fusion and defense engine on first traffic from the
// controller's tuning fields (so callers may set them any time between
// NewController and the first report; read-only accessors never
// trigger the build). Contradictory settings panic, the core.NewAP
// Config contract — Serve pre-validates so the common misconfiguration
// fails at startup, not at the first packet. After Close, either no
// set exists (nil, and ingest is a no-op) or the existing engines
// refuse further input themselves.
func (c *Controller) partsBuild() *partition.Set {
	if s := c.parts.Load(); s != nil {
		return s
	}
	c.partsOnce.Do(func() {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		c.parts.Store(partition.MustNew(c.nParts(),
			func(int) fusion.Config { return c.fusionConfig() },
			func(int) defense.Config { return c.defenseConfig() }))
	})
	return c.parts.Load()
}

// partsLoaded returns the engine set only if traffic (or recovery) has
// already built it — the read-only accessors' view.
func (c *Controller) partsLoaded() *partition.Set { return c.parts.Load() }

func (c *Controller) apCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.apPos)
}

// defenseConfig assembles the defense engine Config from the
// controller's tuning as it stands right now.
func (c *Controller) defenseConfig() defense.Config {
	return defense.Config{
		Policy: c.DefensePolicy,
		Emit:   c.emitDirective,
		Logf:   func(format string, args ...any) { c.logf(format, args...) },
		Clock:  c.clk.Now,
	}
}

// Release is the operator path out of quarantine: drop the MAC's
// threat state back to allow and broadcast the release directive to
// every AP. Reports whether the MAC had any threat state. (The wire
// face is Agent.SendRelease; the CLI face `secureangle defense
// -release`.)
func (c *Controller) Release(mac wifi.Addr) bool {
	return c.releaseFrom(mac, "operator")
}

// releaseFrom is the shared release path: source names who asked (the
// in-process API, or the AP that relayed a wire request) and is what
// the journal records.
func (c *Controller) releaseFrom(mac wifi.Addr, source string) bool {
	s := c.partsLoaded()
	if s == nil {
		return false
	}
	// Capture the threat's trace link before Release wipes the entry —
	// the timeline's closing event joins on it.
	var tr uint64
	if th, ok := s.State(mac); ok {
		tr = th.Trace
	}
	ok := s.Release(mac)
	if ok {
		c.traceSpan(trace.StageRelease, tr, mac, source, 0)
		c.tracer().Retain(tr)
		c.journalAppend(mac, journal.RecRelease, journal.EncodeRelease(journal.ReleaseEvent{MAC: mac, Source: source, Trace: tr}))
	}
	return ok
}

// Threats returns the defense engine's live threat state for every
// tracked client — the in-process face of the Query(KindThreats)
// exchange.
func (c *Controller) Threats() []defense.ClientThreat {
	if s := c.partsLoaded(); s != nil {
		return s.Threats()
	}
	return nil
}

// Threat returns one client's live threat state.
func (c *Controller) Threat(mac wifi.Addr) (defense.ClientThreat, bool) {
	if s := c.partsLoaded(); s != nil {
		return s.State(mac)
	}
	return defense.ClientThreat{}, false
}

// emitDecision is the fusion engines' Emit sink, called outside shard
// locks on every path — live ingest, crash recovery and the standby's
// live apply. It journals the decision and fans it out to every
// subscriber, then closes the loop: ts is the track state the
// decision left, captured under the shard lock. During journal
// recovery the decision is a re-derivation of history: it still feeds
// the defense engine (that is how threat scores are rebuilt), but
// consumers must not see it again and the journal already holds it.
func (c *Controller) emitDecision(d fusion.Decision, ts fusion.TrackState) {
	if !c.recovering.Load() {
		c.journalAppend(d.MAC, journal.RecDecision, journal.EncodeDecision(d))
		// Tail-based retention decided at the fusion boundary: an allowed
		// decision is benign (kept at the probabilistic sample rate); a
		// denied one is fence evidence and retained unconditionally.
		c.traceSpan(trace.StageFuse, d.Trace, d.MAC, "controller", 0)
		if d.Decision == locate.Allow {
			c.tracer().Sample(d.Trace)
		} else {
			c.tracer().Retain(d.Trace)
		}
		out := FenceDecision{MAC: d.MAC, SeqNo: d.Seq, Pos: d.Pos, Decision: d.Decision, APs: d.APs}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return // mid-close: the engines may be tearing down too
		}
		for id, ch := range c.subs {
			select {
			case ch <- out:
			default:
				if c.Logf != nil {
					c.logf("controller: subscriber %d behind, dropping %v", id, out.MAC)
				}
			}
		}
		c.mu.Unlock()
	}
	if s := c.partsLoaded(); s != nil {
		s.ReportDecision(d, ts)
	}
}

// ControllerStats aggregates the fusion engine's counters with the
// defense engine's and the controller's own ingress drops.
type ControllerStats struct {
	fusion.Stats
	// Defense holds the defense engine's counters (verdicts ingested,
	// quarantines, null-steer escalations, releases by cause).
	Defense defense.Stats
	// UnknownAPDrops counts reports naming an AP that no session has
	// registered.
	UnknownAPDrops uint64
	// DirectiveAcks counts applied-countermeasure reports from APs.
	DirectiveAcks uint64
	// SendOverflows counts sessions closed for passing SendBacklog.
	SendOverflows uint64
}

// Stats snapshots the controller's fusion, defense, and ingress
// counters. Like the other read-only accessors it reports zeros before
// the first report has built the engines, rather than building them
// (which would freeze the tuning fields early).
func (c *Controller) Stats() ControllerStats {
	s := ControllerStats{
		UnknownAPDrops: c.unknownAP.Load(),
		DirectiveAcks:  c.directiveAcks.Load(),
		SendOverflows:  c.sendOverflows.Load(),
	}
	if set := c.partsLoaded(); set != nil {
		s.Stats = set.Stats()
		s.Defense = set.DefenseStats()
	}
	return s
}

// Track returns the live mobility-trace state for one client MAC — the
// in-process face of the wire Query/Tracks exchange.
func (c *Controller) Track(mac wifi.Addr) (fusion.TrackState, bool) {
	if s := c.partsLoaded(); s != nil {
		return s.Track(mac)
	}
	return fusion.TrackState{}, false
}

// Snapshot returns the mobility-trace state of every tracked client.
func (c *Controller) Snapshot() []fusion.TrackState {
	if s := c.partsLoaded(); s != nil {
		return s.Snapshot()
	}
	return nil
}

// Subscription is one registered consumer of fused fence decisions.
type Subscription struct {
	// C delivers this subscriber's decisions. It closes on Unsubscribe
	// or when the controller shuts down.
	C <-chan FenceDecision

	id int
	ch chan FenceDecision
}

// Subscribe registers a decision consumer. Every fused decision is
// fanned out to all live subscriptions; a subscriber that falls more
// than buf decisions behind has further decisions dropped rather than
// stalling fusion. buf <= 0 defaults to 64. Subscribing to a closed
// controller returns an already-closed channel.
func (c *Controller) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan FenceDecision, buf)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	if c.closed {
		close(ch)
	} else {
		c.subs[id] = ch
	}
	return &Subscription{C: ch, id: id, ch: ch}
}

// Unsubscribe removes a subscription and closes its channel. Safe to
// call after Close (a no-op then: Close already closed the channel).
func (c *Controller) Unsubscribe(s *Subscription) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.subs[s.id]; ok {
		delete(c.subs, s.id)
		close(ch)
	}
}

// Serve starts accepting AP connections on the listener. It returns
// immediately; Close shuts everything down. Contradictory fusion or
// defense tuning (see Config in packages fusion and defense) panics
// here, before any peer traffic can trigger the engines' lazy builds
// inside a handler.
func (c *Controller) Serve(ln net.Listener) {
	if c.parts.Load() == nil {
		if err := c.fusionConfig().WithDefaults().Validate(); err != nil {
			panic(err)
		}
		if err := c.defenseConfig().WithDefaults().Validate(); err != nil {
			panic(err)
		}
		if n := c.nParts(); n > partition.MaxPartitions {
			panic(fmt.Sprintf("netproto: Partitions %d exceeds %d", n, partition.MaxPartitions))
		}
	}
	c.ln = ln
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handle(conn)
			}()
		}
	}()
}

// Close stops the listener, drains the in-flight connection handlers
// (each is unblocked by cancelling its connection), shuts the fusion
// engine down, and only then closes the subscription channels, so no
// consumer sees a premature close. The final fusion statistics are
// logged through Logf.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// Flight recorder last rites: stop the snapshot ticker, then for
	// each partition in deterministic order 0..N-1 take the shutdown
	// snapshot while the engines are still alive (so a clean restart
	// restores instantly instead of replaying the WAL) and only then
	// seal that partition's journal. Snapshot-before-seal per partition
	// matters: sealing first would leave the snapshot unwritable and a
	// restart replaying the whole WAL tail.
	if c.snapDone != nil {
		close(c.snapDone)
		c.snapWG.Wait()
	}
	if js := c.jset.Load(); js != nil {
		for i, j := range js.js {
			if c.snapshotsEnabled() {
				if err := c.saveSnapshot(i, j); err != nil {
					c.logf("controller: shutdown snapshot p%d: %v", i, err)
				}
			}
			if err := j.Close(); err != nil {
				c.logf("controller: journal close p%d: %v", i, err)
			}
		}
	}
	// Burn the lazy-init slot so a racing ingest cannot build a fresh
	// engine set after we shut down; then close whichever engines exist.
	c.partsOnce.Do(func() {})
	if set := c.partsLoaded(); set != nil {
		set.Close()
		s := set.Stats()
		c.logf("controller: close: ingested=%d decisions=%d dups=%d expired=%d evictedPending=%d evictedClients=%d forced=%d fuseErrors=%d unknownAP=%d",
			s.Ingested, s.Decisions, s.DupDropped, s.PendingExpired, s.PendingEvicted, s.ClientsEvicted, s.ForcedTimeouts, s.FuseErrors, c.unknownAP.Load())
		d := set.DefenseStats()
		c.logf("controller: defense close: spoofs=%d fences=%d tracks=%d quarantines=%d nullSteers=%d releases=%d (decay=%d ttl=%d operator=%d evicted=%d) acks=%d",
			d.SpoofVerdicts, d.FenceVerdicts, d.TrackVerdicts, d.Quarantines, d.NullSteers, d.Releases, d.DecayReleases, d.TTLReleases, d.OperatorReleases, d.EvictedReleases, c.directiveAcks.Load())
	}
	c.cancel()
	if c.ln != nil {
		c.ln.Close()
	}
	c.mu.Lock()
	opsSrv := c.opsSrv
	c.mu.Unlock()
	if opsSrv != nil {
		opsSrv.Close()
	}
	c.wg.Wait()
	c.mu.Lock()
	for id, ch := range c.subs {
		delete(c.subs, id)
		close(ch)
	}
	c.mu.Unlock()
}

// logf writes through Logf. Per-event call sites check Logf first: the
// arguments escape, so building them allocates even when Logf is nil.
func (c *Controller) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// tracer resolves the span recorder (Tracer field, else the process
// default).
func (c *Controller) tracer() *trace.Recorder {
	if c.Tracer != nil {
		return c.Tracer
	}
	return trace.Default()
}

// traceSpan records one controller-side span on a packet's decision
// trace. No-op for untraced events (id zero) and during journal
// recovery — replayed history must not mint fresh wall-clock timings.
// start == 0 records a point event at now; a nonzero start records the
// elapsed interval since it.
func (c *Controller) traceSpan(stage trace.Stage, id uint64, mac wifi.Addr, ap string, start int64) {
	if id == 0 || c.recovering.Load() {
		return
	}
	now := trace.Now()
	var dur int64
	if start != 0 {
		dur = now - start
	} else {
		start = now
	}
	c.tracer().Record(trace.Span{
		Trace: id, Stage: stage, Start: start, Dur: dur,
		MAC: mac, AP: ap, Partition: uint16(partition.IndexFor(mac, c.nParts())),
	})
}

// readTimeout resolves the keepalive deadline (<0 disables).
func (c *Controller) readTimeout() time.Duration {
	if c.ReadTimeout != 0 {
		return c.ReadTimeout
	}
	return DefaultReadTimeout
}

func (c *Controller) handle(conn net.Conn) {
	defer conn.Close()
	// Close the connection when the controller shuts down so the read
	// loop unblocks; done then ends the session's writer and streams.
	defer context.AfterFunc(c.ctx, func() { conn.Close() })()
	done := make(chan struct{})
	defer close(done)

	tokenOK := false
	var apName string
	var sess apConn
	var health *apHealth
	var repl *replSession
	br := bufio.NewReader(conn)
	var readBuf []byte // decoded messages copy what they keep
	for {
		if t := c.readTimeout(); t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		body, err := ReadMessageBuf(br, readBuf)
		t0 := trace.Now() // a report's StageIngest span starts here
		if cap(body) <= frameKeep {
			readBuf = body
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.logf("controller: read: %v", err)
			}
			return
		}
		msg, err := Unmarshal(body)
		if err != nil {
			c.logf("controller: decode: %v", err)
			return
		}
		if _, ok := msg.(Hello); !ok && health == nil {
			// The handshake comes first: nothing reaches the engines
			// from a session whose Hello has not passed authorize.
			c.logf("controller: %T before Hello, closing session", msg)
			return
		}
		if health != nil {
			health.lastSeen.Store(time.Now().UnixNano())
			health.frames.Add(1)
		}
		switch m := msg.(type) {
		case Hello:
			if health != nil {
				c.logf("controller: duplicate Hello %q ignored", m.Name)
				continue
			}
			if ok, reason := c.authorize(m); !ok {
				// Reject before the AP registers as a bearing source.
				if err := WriteMessage(conn, MarshalWelcome(Welcome{Status: WelcomeAuthRejected})); err != nil {
					c.logf("controller: auth reject to %q: %v", m.Name, err)
				}
				mAuthRejects.Inc()
				c.logf("controller: session %q rejected: %s", m.Name, reason)
				return
			}
			// A token that reached this point validated (authorize
			// rejects bad ones even when auth is optional): the session
			// is entitled to the token-gated exchanges — replication.
			tokenOK = m.Token != ""
			apName = m.Name
			if m.Name == "" {
				// Observer session: receives broadcasts and may query,
				// but is never a bearing source — kept out of apPos so
				// it cannot skew the all-APs-reported fusion shortcut.
				apName = fmt.Sprintf("#observer%d", c.observerSeq.Add(1))
				c.logf("controller: observer %s connected", apName)
			} else {
				c.mu.Lock()
				c.apPos[m.Name] = m.Pos
				c.mu.Unlock()
				c.logf("controller: AP %q at %v", m.Name, m.Pos)
			}
			health = newAPHealth(apName, m.Name == "")
			sess = c.startSession(apName, conn, done, health)
		case Ping:
			// Keepalive only: reading it already pushed the deadline.
		case ReportBatch:
			health.reports.Add(uint64(len(m)))
			c.ingestBatch(m, t0)
		case Alert:
			c.handleAlert(m)
		case Query:
			c.answerQuery(m, sess)
		case Directive:
			c.handleDirective(m, apName)
		case SegmentAck:
			// Token-gated: journal streaming ships the fleet's full
			// event history, so only a peer that proved an enrollment
			// token may subscribe. The first ack is the subscribe
			// position vector; later ones report applied LSNs.
			if !tokenOK {
				c.logf("controller: segment ack ignored on unauthenticated session %s", apName)
				continue
			}
			repl = c.handleSegmentAck(repl, m, apName, sess.out, done)
		}
	}
}

// startSession registers an outbox for a session and starts its
// writer, which from then on owns the connection's write side: one
// Write per wake-up carries everything posted since the last one. The
// outbox opens with the Welcome and the resume frames.
//
// An AP reconnecting under a name still registered (its old TCP
// connection lingering half-open) replaces the registration atomically:
// the stale connection is closed, which ends its writer and handler —
// no handoff window in which broadcasts race between the two.
func (c *Controller) startSession(name string, conn net.Conn, done chan struct{}, health *apHealth) apConn {
	limit := c.sendBacklog
	if limit <= 0 {
		limit = SendBacklog
	}
	ac := apConn{conn: conn, health: health, out: newOutbox(limit, func() {
		c.sendOverflows.Add(1)
		c.logf("controller: session %s unsent backlog past %d bytes, closing it", name, limit)
		conn.Close()
	})}
	c.sessMu.Lock()
	prev, hadPrev := c.sessions[name]
	c.sessions[name] = ac
	c.sessMu.Unlock()
	if hadPrev {
		c.logf("controller: AP %q reconnected, replacing stale connection", name)
		prev.conn.Close()
	}
	// A (re)connecting AP must learn the quarantines already in force —
	// after a controller restart the defense engine's restored leases
	// would otherwise exist only in controller memory while the fleet,
	// freshly rebooted or lease-expired, lets the attackers back in.
	// Taken after registration, so a directive emitted meanwhile is
	// either in the snapshot or queued behind it.
	open, n := c.appendResume(appendFrame(nil, MarshalWelcome(Welcome{Status: WelcomeOK})))
	ac.out.prepend(open, n+1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			ac.out.close()
			c.sessMu.Lock()
			if cur, ok := c.sessions[name]; ok && cur.out == ac.out {
				delete(c.sessions, name)
			}
			c.sessMu.Unlock()
		}()
		for b := []byte(nil); ; {
			if b = ac.out.take(b); len(b) > 0 {
				if _, err := conn.Write(b); err != nil {
					return
				}
			}
			select {
			case <-ac.out.wake:
			case <-done:
				return
			}
		}
	}()
	return ac
}

// batchIngestScratch is the pooled per-batch state of ingestBatch: the
// resolved bearings and the encode arena + record headers each journal
// flush reuses.
type batchIngestScratch struct {
	bearings []fusion.Bearing
	recs     []journal.Record
	enc      []byte
	offs     []int32
}

var batchIngestPool = sync.Pool{New: func() any { return &batchIngestScratch{} }}

// ingestBatch is the controller's one ingest path. One registry lock
// resolves every report's AP position. Each traced report then records
// its StageIngest span: the interval from t0, when its frame left
// ReadMessageBuf, to the hand-off to fusion, recorded before the
// engines run so the decision's Retain or Sample promotes it. The bearings are grouped by partition
// (partition.Set's Group), each touched engine takes them as one batch
// (fusion takes each shard lock once, not once per report), and the
// report records group-commit; within a partition, the records of
// report i's fused decision (and any directives it provokes) land
// before report i's own record. Reports are applied before they are
// journaled: a snapshot racing one either sees its effect (and the
// record's LSN predates the capture) or the record lands in the
// replayed tail — double-applied at worst, never lost; the fusion seq
// window absorbs a re-applied report.
func (c *Controller) ingestBatch(rs []Report, t0 int64) {
	if len(rs) == 0 {
		return
	}
	sc := batchIngestPool.Get().(*batchIngestScratch)
	// Resolve every report's AP position under one registry lock.
	bearings := sc.bearings[:0]
	unknown, unknownName := 0, ""
	c.mu.Lock()
	for i := range rs {
		r := &rs[i]
		pos, ok := c.apPos[r.APName]
		if !ok {
			if unknown++; unknown == 1 {
				unknownName = r.APName
			}
			continue
		}
		bearings = append(bearings, fusion.Bearing{AP: r.APName, APPos: pos, MAC: r.MAC, Seq: r.SeqNo, Deg: r.BearingDeg, Trace: r.Trace})
	}
	c.mu.Unlock()
	sc.bearings = bearings
	for i := range bearings {
		b := &bearings[i]
		c.traceSpan(trace.StageIngest, b.Trace, b.MAC, b.AP, t0)
	}
	if unknown > 0 {
		c.unknownAP.Add(uint64(unknown))
		if c.Logf != nil {
			c.logf("controller: %d report(s) from unknown AP(s) dropped, first %q", unknown, unknownName)
		}
	}
	// The set is nil only after Close, which also sealed the journals.
	if set := c.partsBuild(); set != nil {
		set.Group(bearings, func(p int, run []fusion.Bearing, _ []int32) {
			c.ingestRun(set, p, run, sc)
		})
	}
	c.releaseBatchScratch(sc)
}

// ingestRun feeds one partition's contiguous run of bearings to its
// fusion engine as a batch and journals the run's report records in
// group commits, interleaved so the per-partition record stream does
// not depend on how the reports were batched: reports before a
// decision flush as one batch before that decision's records.
func (c *Controller) ingestRun(set *partition.Set, p int, run []fusion.Bearing, sc *batchIngestScratch) {
	cursor := 0
	set.At(p).Fusion.IngestBatch(run, func(i int, d fusion.Decision, ts fusion.TrackState, _ bool) {
		if i > cursor {
			c.flushReportRun(p, run[cursor:i], sc)
			cursor = i
		}
		c.emitDecision(d, ts)
	})
	c.flushReportRun(p, run[cursor:], sc)
}

// flushReportRun group-commits one slice of a partition run's report
// records: every payload is encoded into one reused arena and the
// whole slice lands with a single journal AppendBatch.
func (c *Controller) flushReportRun(p int, run []fusion.Bearing, sc *batchIngestScratch) {
	if len(run) == 0 {
		return
	}
	js := c.journals()
	if js == nil || c.recovering.Load() {
		return
	}
	enc, offs := sc.enc[:0], sc.offs[:0]
	for i := range run {
		b := &run[i]
		enc = journal.AppendReport(enc, journal.ReportEvent{
			AP: b.AP, APPos: b.APPos, MAC: b.MAC, Seq: b.Seq, BearingDeg: b.Deg, Trace: b.Trace,
		})
		offs = append(offs, int32(len(enc)))
	}
	recs := sc.recs[:0]
	prev := int32(0)
	for _, off := range offs {
		recs = append(recs, journal.Record{Type: journal.RecReport, Data: enc[prev:off:off]})
		prev = off
	}
	sc.enc, sc.offs, sc.recs = enc, offs, recs
	if _, err := js[p].AppendBatch(recs); err != nil && !errors.Is(err, journal.ErrClosed) {
		c.logf("controller: journal batch append p%d: %v", p, err)
	}
}

// releaseBatchScratch clears reference-holding scratch and pools it.
func (c *Controller) releaseBatchScratch(sc *batchIngestScratch) {
	clear(sc.bearings)
	clear(sc.recs) // Data fields alias the arena; drop them
	batchIngestPool.Put(sc)
}

// --- AP agent side ---

// Agent is an AP's connection to the controller.
type Agent struct {
	conn net.Conn
	// br buffers the read side for the handshake and the shared reader
	// alike, so frames read in with the Welcome are not lost.
	br *bufio.Reader
	mu sync.Mutex

	// Timeout, when positive, bounds every Send*/SendAlert* write with
	// a deadline, so a wedged controller cannot block the AP's hot path
	// indefinitely. Set it before sharing the Agent across goroutines.
	Timeout time.Duration

	// The shared inbound reader (see startReader): one goroutine demuxes
	// controller frames onto the per-type channels for Alerts,
	// TrackReplies, ThreatReplies, and Directives. Track/threat frames
	// nobody subscribed to are discarded, so a tracks-only consumer is
	// never wedged behind undrained alerts (and vice versa); alerts and
	// directives arriving before their accessor is called are parked
	// (bounded) and flushed to the first subscriber.
	readerOnce     sync.Once
	alerts         chan Alert
	tracks         chan Tracks
	threats        chan Threats
	directives     chan Directive
	wantAlerts     atomic.Bool
	wantTracks     atomic.Bool
	wantThreats    atomic.Bool
	wantDirectives atomic.Bool
	pendMu         sync.Mutex
	pendAlerts     []Alert
	pendDirectives []Directive
	readerClosed   bool // reader exited; channels are closed (pendMu)
	querySeq       atomic.Uint32
}

// DialContext connects to the controller under ctx (an already-
// cancelled context fails immediately; a deadline bounds dial and
// handshake) and performs the handshake: it writes the Hello and
// waits for the controller's Welcome.
func DialContext(ctx context.Context, addr string, hello Hello) (*Agent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	a, err := handshake(ctx, conn, hello)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// NewAgentContext is DialContext's handshake on an existing connection
// (tests use net.Pipe): it writes the Hello and waits for the
// controller's Welcome, so the far end must answer like a controller.
func NewAgentContext(ctx context.Context, conn net.Conn, hello Hello) (*Agent, error) {
	return handshake(ctx, conn, hello)
}

// handshake writes the Hello and consumes the Welcome. Both a
// ctx deadline and plain cancellation interrupt it: cancellation closes
// the connection mid-handshake, so a peer that accepts but never
// replies cannot block the caller.
func handshake(ctx context.Context, conn net.Conn, hello Hello) (*Agent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		defer conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(conn, MarshalHello(hello)); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	body, err := ReadMessage(br)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("netproto: welcome: %w", err)
	}
	msg, err := Unmarshal(body)
	if err != nil {
		return nil, fmt.Errorf("netproto: welcome: %w", err)
	}
	w, ok := msg.(Welcome)
	if !ok {
		return nil, fmt.Errorf("netproto: expected Welcome, got %T", msg)
	}
	if w.Status != WelcomeOK {
		return nil, ErrAuthRejected
	}
	return &Agent{conn: conn, br: br}, nil
}

// writeBody frames and writes one message with the Agent's write
// deadline applied. Caller holds a.mu.
func (a *Agent) writeBody(body []byte) error {
	if a.Timeout > 0 {
		a.conn.SetWriteDeadline(time.Now().Add(a.Timeout))
		defer a.conn.SetWriteDeadline(time.Time{})
	}
	return WriteMessage(a.conn, body)
}

// Send ships one report; safe for concurrent use. A configured Timeout
// bounds the write.
func (a *Agent) Send(r Report) error {
	return a.SendContext(context.Background(), r)
}

// SendContext is Send with the context's deadline bounding the write
// instead of the Agent's Timeout; an already-cancelled context fails
// immediately, before taking the send lock. The report travels as a
// ReportBatch of one.
func (a *Agent) SendContext(ctx context.Context, r Report) error {
	return a.SendBatchContext(ctx, []Report{r})
}

// SendBatch ships a batch of reports as ReportBatch messages — the
// AP-side counterpart of core.ObserveBatch, one frame (and one syscall)
// for many observations instead of one each. Batches whose encoding
// would exceed MaxMessageSize are split across multiple frames
// transparently. Safe for concurrent use; reports of one call are not
// interleaved with other senders. A configured Timeout bounds each
// frame's write.
func (a *Agent) SendBatch(rs []Report) error {
	return a.SendBatchContext(context.Background(), rs)
}

// SendBatchContext is SendBatch with the context's deadline bounding
// every frame write instead of the Agent's Timeout; an already-
// cancelled context fails immediately.
func (a *Agent) SendBatchContext(ctx context.Context, rs []Report) error {
	return a.sendWithCtx(ctx, func(write func([]byte) error) error {
		return a.sendBatchLocked(rs, write)
	})
}

// sendWithCtx runs one send operation under a.mu with the context's
// deadline (when present) replacing the Agent's Timeout for its writes.
// The single home for the deadline-vs-Timeout rule.
func (a *Agent) sendWithCtx(ctx context.Context, send func(write func([]byte) error) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		a.conn.SetWriteDeadline(dl)
		defer a.conn.SetWriteDeadline(time.Time{})
		return send(func(body []byte) error { return WriteMessage(a.conn, body) })
	}
	return send(a.writeBody)
}

// sendBatchLocked chunks reports into ReportBatch frames under
// MaxMessageSize and hands each to write (the trailing trace-ID block,
// 8 bytes per report, is budgeted into the chunk size). Caller holds
// a.mu.
func (a *Agent) sendBatchLocked(rs []Report, write func([]byte) error) error {
	for len(rs) > 0 {
		// Grow the chunk until the next report would overflow the frame.
		// A report body is at most ~64 KB (a u16-length name), so every
		// chunk holds at least one.
		body, n := []byte{TypeReportBatch, 0, 0, 0, 0}, 0
		for ; n < len(rs); n++ {
			next := appendReportBody(body, rs[n])
			if n > 0 && len(next)+8*(n+1) > MaxMessageSize {
				break
			}
			body = next
		}
		for _, r := range rs[:n] {
			body = bin.U64(body, r.Trace)
		}
		binary.BigEndian.PutUint32(body[1:5], uint32(n))
		if err := write(body); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

// Ping sends a keepalive frame, resetting the controller's read
// deadline for this connection. Agents that can go quiet longer than
// Controller.ReadTimeout (listen-only fence nodes) call it
// periodically; agents that report continuously never need to.
func (a *Agent) Ping() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalPing())
}

// Close terminates the agent's connection.
func (a *Agent) Close() error { return a.conn.Close() }
