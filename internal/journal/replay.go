package journal

// Deterministic re-application of the journalled event stream.
//
// ApplyRecords is the shared driver: it walks the log in LSN order,
// pins a ReplayClock to each record's timestamp, runs the caller's
// sweep hook (so time-driven transitions — decay releases, pending
// TTLs, forced decisions — happen at their recorded moments), and
// dispatches the *input* events to the caller's sinks. The controller's
// crash recovery feeds its live engines through it; Replay feeds a
// fresh partition.Set as wide as the journal layout — the same
// fusion→defense loop — and captures the directive sequence, optionally
// under a different DefensePolicy — the counterfactual knob.

import (
	"fmt"
	"sort"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/locate"
	"secureangle/internal/partition"
)

// Hooks are ApplyRecords' sinks. Nil hooks are skipped. Clock is
// required: it is pinned to each record's timestamp before the record
// is dispatched.
type Hooks struct {
	Clock *ReplayClock
	// Sweep runs time-driven engine transitions at each record's
	// timestamp, before the record itself is applied.
	Sweep func(now time.Time)
	// OnRecord, if set, observes each record after the sweep and before
	// its event is dispatched (replay uses it to stamp provenance).
	OnRecord func(rec Record)
	// Input sinks — what recovery and replay re-apply.
	Report  func(ReportEvent)
	Alert   func(defense.SpoofVerdict)
	Release func(ReleaseEvent)
	// Enroll applies an enrollment-table mutation (token digest minted
	// or revoked) — how tokens survive recovery and failover.
	Enroll func(EnrollEvent)
	// Output observers — recorded decisions/directives/acks, for audit
	// or comparison; recovery leaves them nil (it re-derives outputs).
	Decision  func(fusion.Decision)
	Directive func(defense.Directive)
	Ack       func(AckEvent)
}

// Apply dispatches one record through h: pins the clock to the record
// timestamp, sweeps, decodes, and routes the event to its sink. It is
// the single-record core of ApplyRecords; the standby's live feed
// applies each replicated record through it. RecSkip records advance
// nothing (the elided events are compacted-away benign bulk).
func Apply(rec Record, h Hooks) error {
	if h.Clock != nil {
		h.Clock.Set(rec.TS)
	}
	if h.Sweep != nil {
		h.Sweep(rec.TS)
	}
	if h.OnRecord != nil {
		h.OnRecord(rec)
	}
	ev, err := DecodeEvent(rec)
	if err != nil {
		return fmt.Errorf("LSN %d: %w", rec.LSN, err)
	}
	switch ev := ev.(type) {
	case ReportEvent:
		if h.Report != nil {
			h.Report(ev)
		}
	case defense.SpoofVerdict:
		if h.Alert != nil {
			h.Alert(ev)
		}
	case ReleaseEvent:
		if h.Release != nil {
			h.Release(ev)
		}
	case EnrollEvent:
		if h.Enroll != nil {
			h.Enroll(ev)
		}
	case fusion.Decision:
		if h.Decision != nil {
			h.Decision(ev)
		}
	case defense.Directive:
		if h.Directive != nil {
			h.Directive(ev)
		}
	case AckEvent:
		if h.Ack != nil {
			h.Ack(ev)
		}
	case SkipEvent:
		// Compaction gap: nothing to re-apply.
	}
	return nil
}

// ApplyRecords re-applies every record in dir with LSN > after through
// h, in order, under the recorded clock. It returns the last LSN
// applied (== after when the log holds nothing newer) and the number of
// records seen. Undecodable payloads abort with an error — recovery
// must not silently skip events.
func ApplyRecords(dir string, after uint64, h Hooks) (last uint64, n int, err error) {
	if h.Clock == nil {
		return after, 0, fmt.Errorf("journal: ApplyRecords needs a Clock")
	}
	last = after
	err = ReadRecords(dir, after, func(rec Record) error {
		if err := Apply(rec, h); err != nil {
			return err
		}
		last, n = rec.LSN, n+1
		return nil
	})
	return last, n, err
}

// ReplayOptions tunes a counterfactual Replay.
type ReplayOptions struct {
	// Fence is the virtual-fence geometry of the recorded deployment.
	// Required: the journal records bearings, not the floor plan.
	Fence *locate.Fence
	// Policy is the DefensePolicy to re-run the incident under (zero
	// fields take the package defense defaults) — set it differently
	// from the recorded deployment's to ask "what would the fleet have
	// done?".
	Policy defense.Policy
	// Fusion optionally overrides fusion tuning (Fence, Emit, Clock,
	// APCount, and TickInterval are managed by Replay regardless).
	Fusion fusion.Config
	// After skips records with LSN <= it in every partition stream (0
	// replays all retained history).
	After uint64
	// Tail extends the replay past the last record: the clock steps
	// forward TailStep at a time (default 50ms, the engines' tick) so
	// decay releases and TTL expiries that postdate the final event
	// still play out.
	Tail     time.Duration
	TailStep time.Duration
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// ReplayedDirective is one directive the replayed policy emitted.
type ReplayedDirective struct {
	// TS is the replay-clock instant of emission; AfterLSN the last
	// journal record applied before it.
	TS        time.Time
	AfterLSN  uint64
	Directive defense.Directive
	// Wire is the canonical EncodeDirective byte form — the surface two
	// replays are byte-compared on.
	Wire []byte
}

// ReplayResult is a completed replay.
type ReplayResult struct {
	// Directives is the counterfactual directive sequence, in emission
	// order (merged by timestamp across a partitioned journal's streams).
	Directives []ReplayedDirective
	// RecordedDirectives is the directive sequence the journal actually
	// recorded (what the live policy did), for comparison — in LSN order,
	// merged by timestamp across a partitioned journal's streams.
	RecordedDirectives []defense.Directive
	// Reports/Alerts/Releases count the re-applied inputs; Decisions the
	// fence decisions the replayed fusion engine emitted.
	Reports, Alerts, Releases, Decisions int
	// LastLSN is the last journal record applied (the highest across a
	// partitioned journal's streams; LSNs are per partition).
	LastLSN uint64
	// Quarantined is the threat state still in quarantine when the
	// replay (including Tail) ended.
	Quarantined []defense.ClientThreat
}

// Replay re-runs a journal's event stream through the live closed loop
// — a fresh partition.Set, whose fusion decisions feed defense through
// Set.ReportDecision exactly as the controller's do — driven by the
// recorded clock, under opts.Policy, and returns the counterfactual
// directive sequence. The Set is as wide as the journal layout under
// dir (see Dirs): each partition stream replays into its own partition,
// in partition order as recovery does, sweeping only that partition's
// engines because the clock rewinds between streams. Reports keep
// their recorded trace IDs, so under the recorded policy the replayed
// directives carry the recorded traces. Two replays of the same journal
// with the same options produce byte-identical Wire sequences: inputs
// are applied in LSN order on one goroutine, both engines iterate
// deterministically, and fusion sorts bearings before the
// least-squares fuse.
func Replay(dir string, opts ReplayOptions) (*ReplayResult, error) {
	if opts.Fence == nil {
		return nil, fmt.Errorf("journal: Replay needs the deployment's Fence")
	}
	if opts.TailStep <= 0 {
		opts.TailStep = 50 * time.Millisecond
	}
	dirs, err := Dirs(dir)
	if err != nil {
		return nil, err
	}
	clk := &ReplayClock{}
	res := &ReplayResult{}

	// The registered-AP shortcut: the live controller fuses once every
	// registered AP reported. Registrations are not journalled, so the
	// replay grows the count from the distinct AP names seen — a lower
	// bound that converges after one report from each AP.
	apSeen := map[string]bool{}

	var set *partition.Set
	var lastLSN uint64
	type recorded struct {
		ts time.Time
		d  defense.Directive
	}
	var recs []recorded

	fcfg := opts.Fusion
	fcfg.Fence = opts.Fence
	fcfg.Clock = clk.Now
	fcfg.TickInterval = time.Hour // replay drives Sweep itself
	fcfg.APCount = func() int { return len(apSeen) }
	fcfg.Logf = opts.Logf
	fcfg.Emit = func(d fusion.Decision, ts fusion.TrackState) {
		res.Decisions++
		set.ReportDecision(d, ts)
	}
	dcfg := defense.Config{
		Policy:       opts.Policy,
		Clock:        clk.Now,
		TickInterval: time.Hour,
		Logf:         opts.Logf,
		Emit: func(d defense.Directive) {
			res.Directives = append(res.Directives, ReplayedDirective{
				TS:        clk.Now(),
				AfterLSN:  lastLSN,
				Directive: d,
				Wire:      EncodeDirective(d),
			})
		},
	}
	set, err = partition.New(max(len(dirs), 1),
		func(int) fusion.Config { return fcfg },
		func(int) defense.Config { return dcfg })
	if err != nil {
		return nil, err
	}
	defer set.Close()

	sweep := func(i int) func(time.Time) {
		p := set.At(i)
		return func(now time.Time) {
			p.Fusion.Sweep(now)
			p.Defense.Sweep(now)
		}
	}
	ends := make([]time.Time, len(dirs)) // each stream's last record
	var endTS time.Time                  // the journal's last record
	for i, pdir := range dirs {
		last, _, err := ApplyRecords(pdir, opts.After, Hooks{
			Clock: clk,
			Sweep: sweep(i),
			OnRecord: func(rec Record) {
				lastLSN = rec.LSN
				ends[i] = rec.TS
			},
			Report: func(ev ReportEvent) {
				res.Reports++
				apSeen[ev.AP] = true
				set.Ingest(fusion.Bearing{AP: ev.AP, APPos: ev.APPos, MAC: ev.MAC, Seq: ev.Seq, Deg: ev.BearingDeg, Trace: ev.Trace})
			},
			Alert: func(v defense.SpoofVerdict) {
				res.Alerts++
				set.ReportSpoof(v)
			},
			Release: func(ev ReleaseEvent) {
				res.Releases++
				set.Release(ev.MAC)
			},
			Directive: func(d defense.Directive) {
				recs = append(recs, recorded{clk.Now(), d})
			},
		})
		if err != nil {
			return nil, err
		}
		res.LastLSN = max(res.LastLSN, last)
		if ends[i].After(endTS) {
			endTS = ends[i]
		}
	}

	// Play the tail out: step each partition's clock from its own last
	// record past the journal's last record, so decay/TTL transitions
	// complete.
	if opts.Tail > 0 {
		for i, end := range ends {
			if end.IsZero() {
				continue
			}
			sw := sweep(i)
			for t := end.Add(opts.TailStep); !t.After(endTS.Add(opts.Tail)); t = t.Add(opts.TailStep) {
				clk.Set(t)
				sw(t)
			}
		}
	}
	if len(dirs) > 1 {
		sort.SliceStable(res.Directives, func(a, b int) bool { return res.Directives[a].TS.Before(res.Directives[b].TS) })
		sort.SliceStable(recs, func(a, b int) bool { return recs[a].ts.Before(recs[b].ts) })
	}
	for _, r := range recs {
		res.RecordedDirectives = append(res.RecordedDirectives, r.d)
	}
	res.Quarantined = set.Quarantined()
	return res, nil
}
