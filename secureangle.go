// Package secureangle is a from-scratch reproduction of
//
//	Jie Xiong and Kyle Jamieson, "SecureAngle: Improving Wireless
//	Security Using Angle-of-Arrival Information", HotNets-IX, 2010.
//	DOI 10.1145/1868447.1868458.
//
// SecureAngle equips a multi-antenna 802.11 access point with
// physical-layer angle-of-arrival estimation: MUSIC pseudospectra computed
// from packet-scale antenna correlation matrices serve simultaneously as
// bearing estimates (for indoor localisation and a multi-AP "virtual
// fence") and as per-client signatures (for link-layer address-spoofing
// detection) — a layer of defense in depth beneath WEP/WPA/WPA2.
//
// This root package is a small facade over the implementation packages in
// internal/: it re-exports the types a typical user touches and provides
// turnkey constructors for the paper's Figure 4 testbed. The full surface
// lives in:
//
//	internal/core        the per-AP pipeline (detect -> calibrate -> correlate -> MUSIC -> signature)
//	internal/music       MUSIC, Bartlett, MVDR, smoothing, MDL/AIC
//	internal/antenna     linear and circular array geometry and steering
//	internal/radio       receiver impairments + the section 2.2 calibration
//	internal/env         image-method multipath ray tracer with drift
//	internal/ofdm        802.11a/g-style OFDM PHY (Schmidl-Cox preamble)
//	internal/detect      Schmidl-Cox packet detection and CFO estimation
//	internal/wifi        minimal 802.11 MAC framing
//	internal/signature   AoA signatures, matching, tracking
//	internal/locate      bearing triangulation and the virtual fence
//	internal/fusion      bounded MAC-sharded bearing-fusion engine + mobility tracks
//	internal/track       alpha-beta mobility filter over fused positions
//	internal/netproto    AP -> controller fusion protocol over TCP + warm-standby replication
//	internal/partition   MAC-range partitioned engine set behind the controller
//	internal/journal     flight recorder: event WAL, snapshots, crash recovery, replay, compaction
//	internal/baseline    RSS signalprint baseline and directional attacker
//	internal/testbed     the paper's Figure 4 office and its 20 clients
//	internal/experiments drivers for Figures 5-7 and all in-text claims
//
// The quickest start: New builds an AP from functional options, and
// its methods thread a context and return typed errors:
//
//	ap, _ := secureangle.New(secureangle.WithName("ap1"), secureangle.WithSeed(42))
//	client, _ := secureangle.Client(5)
//	item, _ := secureangle.TestbedBatchItem(client, 1)
//	rep, err := ap.ObserveContext(ctx, item.TX, item.Baseband)
//	// rep.BearingDeg, rep.Sig, rep.Spectrum ...
//	// errors.Is(err, secureangle.ErrNotDetected) etc. for failures
//
// or, as an always-on service, via the streaming handle:
//
//	s := ap.Stream(ctx, 16)
//	go func() { for r := range s.Results() { ... } }()
//	s.Submit(ctx, item)
//
// See examples/ for runnable programs and cmd/secureangle for the
// experiment harness that regenerates every figure in the paper.
package secureangle

import (
	"io"

	"secureangle/internal/antenna"
	"secureangle/internal/core"
	"secureangle/internal/defense"
	"secureangle/internal/env"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/music"
	"secureangle/internal/netproto"
	"secureangle/internal/ops"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// Core re-exports: the types a library user holds.
type (
	// AP is a SecureAngle access point: array front end, calibration,
	// detection, MUSIC, and the per-MAC signature registry.
	AP = core.AP
	// Config tunes an AP's pipeline.
	Config = core.Config
	// Report is the physical-layer result for one received packet.
	Report = core.Report
	// FrameReport extends Report with the spoof-check decision.
	FrameReport = core.FrameReport
	// Array is an antenna array geometry.
	Array = antenna.Array
	// Environment is the propagation scene (walls, obstacles, drift).
	Environment = env.Environment
	// Signature is a client's AoA signature.
	Signature = signature.Signature
	// Pseudospectrum is likelihood versus bearing.
	Pseudospectrum = music.Pseudospectrum
	// Fence is the virtual fence of section 2.3.1.
	Fence = locate.Fence
	// BearingObs is one AP's bearing observation for triangulation.
	BearingObs = locate.BearingObs
	// Point is a 2-D position in metres.
	Point = geom.Point
	// MAC is a 48-bit link-layer address.
	MAC = wifi.Addr
	// TestbedClient is one of the Figure 4 testbed's numbered clients.
	TestbedClient = testbed.Client
	// BatchItem is one transmission for AP.ObserveBatch.
	BatchItem = core.BatchItem
	// BatchResult is one AP.ObserveBatch output (report or error).
	BatchResult = core.BatchResult
	// FrameBatchItem is one MAC frame for AP.ProcessFrameBatch.
	FrameBatchItem = core.FrameBatchItem
	// FrameBatchResult is one AP.ProcessFrameBatch output.
	FrameBatchResult = core.FrameBatchResult
	// Manifold is a precomputed steering manifold for an (array, grid)
	// pair — the cache behind the estimation fast path.
	Manifold = antenna.Manifold
	// Controller is the multi-AP fusion controller: bearing reports in,
	// fence decisions and mobility tracks out, backed by a bounded
	// MAC-sharded fusion engine (see NewController).
	Controller = netproto.Controller
	// ControllerStats are the controller's fusion/ingress counters.
	ControllerStats = netproto.ControllerStats
	// ControllerStatus is the controller's live status document —
	// fusion/defense/journal counters, per-AP health, the threat table —
	// from Controller.StatusReport or the ops endpoint's /status.
	ControllerStatus = netproto.Status
	// APHealth is one connected session's health snapshot (last seen,
	// frames, reports, acks, send-queue depth).
	APHealth = netproto.APHealth
	// JournalStats are the flight recorder's position and durability
	// counters, from Journal.Stats.
	JournalStats = journal.Stats
	// MetricsRegistry is the ops metrics core: atomic counters, gauges,
	// and fixed-bucket histograms with Prometheus text exposition. The
	// process-wide instance is Metrics().
	MetricsRegistry = ops.Registry
	// FenceDecision is one fused controller decision.
	FenceDecision = netproto.FenceDecision
	// TrackState is one client's live mobility-trace state, from
	// Controller.Track/Snapshot or the wire Query/Tracks exchange.
	TrackState = fusion.TrackState
	// Verdict is a scored spoof-check outcome: decision, distance, and
	// the threshold it was judged against (Margin() is the headroom).
	Verdict = signature.Verdict
	// Directive is one typed defense countermeasure order: the
	// controller's defense engine emits them on threat transitions and
	// APs apply them (see AP.ApplyDirective).
	Directive = defense.Directive
	// DirectiveAction selects a directive's countermeasure.
	DirectiveAction = defense.Action
	// ThreatState is a client's position in the defense state machine
	// (allow -> monitor -> quarantine).
	ThreatState = defense.State
	// ClientThreat is one client's queryable defense state, from
	// Controller.Threats/Threat or the wire Query(KindThreats) exchange.
	ClientThreat = defense.ClientThreat
	// DefensePolicy tunes the controller's threat state machine
	// (escalation thresholds, score decay, quarantine TTL).
	DefensePolicy = defense.Policy
	// DefenseStats are the defense engine's counters.
	DefenseStats = defense.Stats
	// Countermeasure is one directive as applied at an AP (quarantine
	// mark or null-steer weights).
	Countermeasure = core.Countermeasure
	// Journal is the controller's flight recorder: a segmented,
	// CRC32C-framed, append-only event log plus engine snapshots (see
	// OpenJournal and Controller.WithJournalDir).
	Journal = journal.Journal
	// JournalOptions tunes a Journal (segment size, retention, fsync
	// policy).
	JournalOptions = journal.Options
	// JournalRecord is one journal entry (LSN, type, timestamp, payload).
	JournalRecord = journal.Record
	// FsyncPolicy selects the journal's durability/latency tradeoff.
	FsyncPolicy = journal.FsyncPolicy
	// ReplayOptions tunes a counterfactual ReplayJournal run.
	ReplayOptions = journal.ReplayOptions
	// ReplayResult is a completed ReplayJournal run: the counterfactual
	// directive sequence plus what the live policy actually recorded.
	ReplayResult = journal.ReplayResult
	// ReplayedDirective is one directive a replayed policy emitted.
	ReplayedDirective = journal.ReplayedDirective
	// JournalCursor streams a journal directory in LSN order, following
	// rotations and parking at a torn tail — the replication read path
	// (see journal.NewCursor).
	JournalCursor = journal.Cursor
	// CompactPolicy tunes compaction-aware retention: Journal.Compact
	// rewrites sealed snapshot-covered segments keeping only
	// incident-relevant events within ±Window of each incident span.
	CompactPolicy = journal.CompactPolicy
	// CompactStats reports what one Compact pass examined, rewrote,
	// dropped, and reclaimed.
	CompactStats = journal.CompactStats
	// Standby is a warm replica of a leader controller: it streams the
	// leader's journal partitions over the AP port (enrollment tokens
	// as the trust root), applies continuously, and can be promoted to
	// a serving controller (see NewStandby).
	Standby = netproto.Standby
	// StandbyConfig configures a Standby (leader address, journal
	// directory, token, auto-promote timeout).
	StandbyConfig = netproto.StandbyConfig
	// StandbyStatus is a standby's replication position: per-partition
	// lag and the failover-readiness flag.
	StandbyStatus = netproto.StandbyStatus
	// ReplicaStatus is the leader-side view of one connected standby:
	// per-partition sent/acked LSNs and lag (Controller.ReplicationStatus).
	ReplicaStatus = netproto.ReplicaStatus
	// BearingMode selects how Config.Bearing resolves the report bearing
	// (grid scan vs grid-free root-MUSIC/ESPRIT; the pseudospectrum and
	// every decision built on it stay grid-scanned in all modes).
	BearingMode = core.BearingMode
)

// Bearing estimator modes for Config.Bearing, re-exported.
const (
	// BearingAuto (the default) uses root-MUSIC on uniform linear
	// arrays and falls back to the grid scan elsewhere.
	BearingAuto = core.BearingAuto
	// BearingGrid forces the 1-degree manifold grid scan.
	BearingGrid = core.BearingGrid
	// BearingRootMUSIC resolves bearings by polynomial rooting (ULA only).
	BearingRootMUSIC = core.BearingRootMUSIC
	// BearingESPRIT resolves bearings by least-squares rotational
	// invariance, with no spectral search at all (ULA only).
	BearingESPRIT = core.BearingESPRIT
)

// Defense directive actions and threat states, re-exported.
const (
	ActionAllow      = defense.ActionAllow
	ActionQuarantine = defense.ActionQuarantine
	ActionNullSteer  = defense.ActionNullSteer

	ThreatAllow      = defense.StateAllow
	ThreatMonitor    = defense.StateMonitor
	ThreatQuarantine = defense.StateQuarantine
)

// Journal fsync policies, re-exported.
const (
	// FsyncInterval (the default) batches durability on a background
	// flusher; a crash loses at most the last interval's events.
	FsyncInterval = journal.FsyncInterval
	// FsyncAlways fsyncs every append before returning.
	FsyncAlways = journal.FsyncAlways
	// FsyncNever leaves durability to the OS page cache.
	FsyncNever = journal.FsyncNever
)

// OpenJournal opens (creating as needed) one flight-recorder journal
// directory, for tools that append to or inspect a journal directly.
// A controller opens and recovers its own journal layout with
// Controller.WithJournalDir before Serve; a restarted controller
// recovers its fusion and defense state from the same directory.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	return journal.Open(dir, opts)
}

// ReplayJournal re-runs a recorded incident offline under opts.Policy —
// deterministic counterfactual replay of the journalled event stream
// (see the journal package for the guarantees).
func ReplayJournal(dir string, opts ReplayOptions) (*ReplayResult, error) {
	return journal.Replay(dir, opts)
}

// NewStandby builds a warm standby that follows cfg.LeaderAddr's
// journal stream. Run it with Standby.Run; promote it with
// Standby.Promote (or cfg.PromoteAfter of leader silence), after which
// Standby.Controller serves APs — reconnecting sessions present their
// original enrollment tokens and are resumed.
func NewStandby(cfg StandbyConfig) (*Standby, error) { return netproto.NewStandby(cfg) }

// DefaultConfig returns the pipeline settings used throughout the paper
// reproduction.
func DefaultConfig() Config { return core.DefaultConfig() }

// Testbed returns the paper's Figure 4 environment and the building-shell
// fence boundary.
func Testbed() (*Environment, geom.Polygon) { return testbed.Building() }

// AP positions of the testbed.
var (
	AP1 = testbed.AP1
	AP2 = testbed.AP2
	AP3 = testbed.AP3
)

// Client returns testbed client id (1-20).
func Client(id int) (testbed.Client, error) { return testbed.ClientByID(id) }

// CircularArray returns the paper's octagonal 8-antenna array (4.7 cm
// sides); LinearArray the half-wavelength 8-antenna ULA (6.13 cm spacing).
func CircularArray() *Array { return testbed.CircularArray() }

// LinearArray returns the paper's half-wavelength 8-antenna ULA.
func LinearArray() *Array { return testbed.LinearArray() }

// Triangulate fuses bearing observations from two or more APs into a
// position (least squares).
func Triangulate(obs []BearingObs) (Point, error) { return locate.Triangulate(obs) }

// ErrAuthRejected: the controller refused the handshake for a missing,
// unknown, or revoked enrollment token (see Controller.EnrollAP).
var ErrAuthRejected = netproto.ErrAuthRejected

// Metrics returns the process-wide metrics registry: every instrumented
// layer (pipeline, fusion, defense, journal, controller sessions)
// registers its instruments here, and Controller.ServeOps serves it as
// Prometheus text exposition at /metrics. Use WriteMetrics (or
// reg.WritePrometheus) to scrape it in-process.
func Metrics() *MetricsRegistry { return ops.Default() }

// WriteMetrics writes the process-wide registry in Prometheus text
// exposition format (version 0.0.4) — the in-process scrape.
func WriteMetrics(w io.Writer) error { return ops.Default().WritePrometheus(w) }

// NewController builds the multi-AP fusion controller for a fence.
// Tune the exported fields (MinAPs, MinDiversityDeg, DefensePolicy,
// Partitions, ...) before Serve; the fusion engine's bounds are its
// package defaults (see the README "Controller at scale" section).
func NewController(fence *Fence) *Controller { return netproto.NewController(fence) }
