package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"secureangle/internal/core"
	"secureangle/internal/defense"
	"secureangle/internal/env"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/ofdm"
	"secureangle/internal/rng"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// phy_fleet — the full data plane, closed loop. The two testbed APs run
// every batch through ProcessFrameBatch in lockstep; benign frames come
// from the testbed clients, spoofed frames carry enrolled MACs but are
// sent from outside the building; flagged frames become alerts, and
// each AP applies and acks the directives that come back.
// Why: the AP layers do almost all of the work, so a controller-side
// change should show no effect here.
const (
	phyBatch       = 8    // frames per lockstep batch
	phySpoofEvery  = 6    // one transmission in six is a spoof, on average
	phyPoolMACs    = 8    // randomised MAC addresses per client
	phyTrainRounds = 3    // training frames per client in set-up
	phyMaxRate     = 1500 // transmissions per second the generated inputs cover
	phySampleEvery = 4    // traced phases replay every 4th frame through the layers
	// phyMaxDistance is the spoof check's signature threshold. Benign
	// frames on the testbed mostly stay below 0.55 (rarely up to ~0.72);
	// most spoofs land at 0.95-1.0, but at 0.8 the flagged share of
	// spoofs fell below its 0.90 floor on one seed, so 0.7 it is, and a
	// rare benign flag is counted as such.
	phyMaxDistance = 0.7
	// Oracle floors and ceilings on shares the physics decides.
	phyTruthFloor        = 0.95 // fused fence decisions on the true side of the fence
	phySpoofFlagFloor    = 0.90 // processed spoofs flagged by an AP
	phyBenignFlagCeiling = 0.01 // processed benign frames flagged
)

// phyPolicy is phy_fleet's defense policy: spoof alerts alone drive
// quarantine. Fence drops weigh little, because a 2-AP fix of a benign
// client occasionally lands outside the shell (a measurement limit, not
// an attack), and the speed check is off because the benchmark replays
// static clients far faster than real time.
var phyPolicy = defense.Policy{FenceWeight: 0.05, MaxSpeedMS: -1}

// phyTx is one generated transmission.
type phyTx struct {
	item  core.FrameBatchItem
	spoof bool
	owner int // index into the world's clients: whose signature the MAC carries
	trace uint64
}

// phyMACs names the MAC address spaces: each client's pool of benign
// randomised addresses, and the fresh victim address each spoof uses.
func benignMAC(clientID, j int) wifi.Addr {
	return wifi.Addr{0x02, 0x5a, byte(clientID), 0, 0, byte(j)}
}

func victimMAC(k int) wifi.Addr {
	return wifi.Addr{0x02, 0x5b, byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
}

// txTrace is transmission i's trace ID: nonzero, unique within a run,
// and mapped back to i by txOfTrace.
func txTrace(seed int64, i int) uint64 {
	return uint64(seed&0xffffff)<<40 | uint64(i+1)
}

// txOfTrace inverts txTrace (false for a trace this run did not mint).
func txOfTrace(seed int64, trace uint64) (int, bool) {
	if trace>>40 != uint64(seed&0xffffff) || trace&(1<<40-1) == 0 {
		return 0, false
	}
	return int(trace&(1<<40-1)) - 1, true
}

// uplink builds the frame for transmission i: a 64-byte payload whose
// counter makes every frame's bytes unique, so modulation misses the
// baseband cache as on a live AP. marker separates the traced replay's
// frames from the workload's.
func uplink(mac wifi.Addr, i int, marker byte) *wifi.Frame {
	p := make([]byte, 64)
	for k := 0; k < 8; k++ {
		p[k] = byte(uint64(i) >> (8 * k))
	}
	p[8] = marker
	return &wifi.Frame{Type: wifi.Data, ToDS: true, Addr1: testbed.BSSID, Addr2: mac, Addr3: testbed.BSSID, Seq: uint16(i), Payload: p}
}

// genPhyInputs generates n transmissions from the seed: benign frames
// from a random client's random pool address at the client's position,
// and spoofs from a random outside position carrying a fresh victim
// address enrolled with a random client's signature.
func genPhyInputs(seed int64, clients []testbed.Client, n int) []phyTx {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed0001))
	out := make([]phyTx, n)
	outside := testbed.OutsidePositions()
	victims := 0
	for i := range out {
		owner := r.IntN(len(clients))
		tx := phyTx{owner: owner, trace: txTrace(seed, i)}
		if r.IntN(phySpoofEvery) == 0 {
			tx.spoof = true
			tx.item = core.FrameBatchItem{TX: outside[r.IntN(len(outside))], Frame: uplink(victimMAC(victims), i, 0), Mod: ofdm.QPSK}
			victims++
		} else {
			c := clients[owner]
			tx.item = core.FrameBatchItem{TX: c.Pos, Frame: uplink(benignMAC(c.ID, r.IntN(phyPoolMACs)), i, 0), Mod: ofdm.QPSK}
		}
		out[i] = tx
	}
	return out
}

// phyAP is one AP's side of the run: the pipeline, its agent, the
// directives waiting to be applied, and what it reported per
// transmission.
type phyAP struct {
	name   string
	ap     *core.AP
	shadow *core.AP // traced replays run here, leaving ap's noise stream alone
	agent  *agentConn

	mu      sync.Mutex
	pending []netproto.Directive // received, not yet applied

	// Per transmission, written by the AP goroutine during a batch and
	// read by the coordinator after it.
	sent    []bool
	flagged []bool
	bearing []float64
	failed  []string // pipeline stage of a failure, "" when processed

	// Traced phases only: layer timings, agent send time, and the
	// frames sent, which the controller-layer replays re-run.
	layers  apLayers
	sendT   time.Duration
	sends   int
	batches [][]netproto.Report
	alerts  []netproto.Alert
}

// phyWorld is everything phy_fleet builds in set-up.
type phyWorld struct {
	fence   *locate.Fence
	clients []testbed.Client
	txs     []phyTx
	next    int
	aps     [2]*phyAP
	ctrl    *netproto.Controller
	sub     *netproto.Subscription
	dir     string

	seed      int64
	handed    []time.Time
	decisions *arrivals    // by transmission: arrival time, decision
	dirArr    [2]*arrivals // by transmission: first countermeasure directive at each AP
	dirMu     sync.Mutex
	dirMACs   map[wifi.Addr]bool // MACs any countermeasure directive named
	decWG     sync.WaitGroup

	// Cumulative arrivals owed by the phases run so far.
	wantDec, wantDir int
}

func (w *phyWorld) close() {
	for _, a := range w.aps {
		if a != nil && a.agent != nil {
			a.agent.close()
		}
	}
	if w.ctrl != nil {
		w.ctrl.Close()
	}
	w.decWG.Wait()
}

// newPhyAP builds one calibrated testbed AP with the paper's circular
// array; seed fixes its front-end impairments and noise.
func newPhyAP(name string, pos geom.Point, e *env.Environment, seed int64) *core.AP {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Policy = signature.MatchPolicy{MaxDistance: phyMaxDistance}
	return core.NewAP(name, testbed.NewAPFrontEnd(testbed.CircularArray(), pos, rng.New(seed)), e, cfg)
}

func setupPhy(b *bench, rep int) (*phyWorld, error) {
	e, _ := testbed.Building()
	w := &phyWorld{fence: buildingFence(), dir: filepath.Join(b.dir, fmt.Sprintf("phy-%d", rep))}
	names := [2]string{"AP1", "AP2"}
	pos := [2]geom.Point{testbed.AP1, testbed.AP2}
	for g := range w.aps {
		w.aps[g] = &phyAP{name: names[g], ap: newPhyAP(names[g], pos[g], e, b.seed*7+int64(g)+1)}
		if b.traced {
			w.aps[g].shadow = newPhyAP(names[g], pos[g], e, b.seed*7+int64(g)+1)
			w.aps[g].layers.init(w.aps[g].shadow)
		}
	}

	// Training: each client's base address enrolls on its first frame and
	// is checked on the rest. A client any AP cannot hear, or whose 2-AP
	// fix lands outside the fence in most rounds (client 6 in the far
	// corner), is left out of the mix: its geometry is known in set-up.
	all := testbed.Clients()
	items := make([]core.FrameBatchItem, len(all))
	good := make([]int, len(all))
	for r := 0; r < phyTrainRounds; r++ {
		for i, c := range all {
			items[i] = core.FrameBatchItem{TX: c.Pos, Frame: uplink(testbed.ClientMAC(c.ID), -1-r, 1), Mod: ofdm.QPSK}
		}
		var res [2][]core.FrameBatchResult
		var wg sync.WaitGroup
		for g := range w.aps {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res[g] = w.aps[g].ap.ProcessFrameBatch(items)
			}(g)
		}
		wg.Wait()
		for i := range all {
			if res[0][i].Err != nil || res[1][i].Err != nil {
				good[i] = -phyTrainRounds
				continue
			}
			d, _, err := w.fence.Decide([]locate.BearingObs{
				{AP: pos[0], BearingDeg: res[0][i].Report.BearingDeg},
				{AP: pos[1], BearingDeg: res[1][i].Report.BearingDeg},
			})
			if err == nil && d == locate.Allow {
				good[i]++
			}
		}
	}
	for i, c := range all {
		if 2*good[i] > phyTrainRounds {
			w.clients = append(w.clients, c)
		}
	}
	if len(w.clients) < len(all)/2 {
		return nil, fmt.Errorf("only %d of %d clients usable after training", len(w.clients), len(all))
	}

	// Inputs, then certify every address they use with its owner's
	// trained signature (a client's randomised addresses, and the
	// victims' addresses the attacker replays).
	n := int(float64(phyMaxRate) * b.seconds.Seconds())
	w.txs = genPhyInputs(b.seed, w.clients, n+phyBatch)
	for _, a := range w.aps {
		sigs := make([]*signature.Signature, len(w.clients))
		for k, c := range w.clients {
			sig, ok := a.ap.StoredSignature(testbed.ClientMAC(c.ID))
			if !ok {
				return nil, fmt.Errorf("%s: client %d not enrolled", a.name, c.ID)
			}
			sigs[k] = sig
			for j := 0; j < phyPoolMACs; j++ {
				a.ap.Enroll(benignMAC(c.ID, j), sig)
			}
		}
		for _, tx := range w.txs {
			if tx.spoof {
				a.ap.Enroll(tx.item.Frame.Addr2, sigs[tx.owner])
			}
		}
		a.sent = make([]bool, len(w.txs))
		a.flagged = make([]bool, len(w.txs))
		a.bearing = make([]float64, len(w.txs))
		a.failed = make([]string, len(w.txs))
	}
	w.seed = b.seed
	w.handed = make([]time.Time, len(w.txs))
	w.decisions = newArrivals(len(w.txs))
	w.dirArr = [2]*arrivals{newArrivals(len(w.txs)), newArrivals(len(w.txs))}
	w.dirMACs = map[wifi.Addr]bool{}

	ctrl, addr, err := startController(w.fence, controllerConfig{partitions: 1, policy: phyPolicy, dir: w.dir})
	if err != nil {
		return nil, err
	}
	w.ctrl = ctrl
	w.sub = ctrl.Subscribe(1 << 14)
	w.decWG.Add(1)
	go func() {
		defer w.decWG.Done()
		for d := range w.sub.C {
			w.decisions.note(int(d.SeqNo), time.Now(), int(d.Decision))
		}
	}()
	for g, a := range w.aps {
		ag, err := dialAgent(addr, a.name, pos[g])
		if err != nil {
			w.close()
			return nil, err
		}
		a.agent = ag
		g, a := g, a
		ag.listen(func(d netproto.Directive, at time.Time) {
			if d.Action != defense.ActionAllow {
				if tx, ok := txOfTrace(w.seed, d.Trace); ok {
					w.dirArr[g].note(tx, at, int(d.Action))
				}
				w.dirMu.Lock()
				w.dirMACs[d.MAC] = true
				w.dirMu.Unlock()
			}
			a.mu.Lock()
			a.pending = append(a.pending, d)
			a.mu.Unlock()
		}, nil)
	}
	return w, nil
}

// batch runs one lockstep batch [lo, hi) at AP g: apply and ack the
// directives received since the last batch, process the frames, report
// the bearings and alert on flags.
func (w *phyWorld) batch(g, lo, hi int, traced bool) error {
	a := w.aps[g]
	a.mu.Lock()
	pending := a.pending
	a.pending = nil
	a.mu.Unlock()
	for _, d := range pending {
		t0 := time.Now()
		if _, err := a.ap.ApplyDirective(d.Directive); err != nil {
			return fmt.Errorf("%s: apply directive: %w", a.name, err)
		}
		if traced {
			a.layers.apply.add(time.Since(t0))
		}
		applied := d.Directive
		applied.Reporter = a.name
		if err := a.agent.ag.SendDirectiveAck(applied); err != nil {
			return fmt.Errorf("%s: ack: %w", a.name, err)
		}
	}

	items := make([]core.FrameBatchItem, hi-lo)
	for i := range items {
		items[i] = w.txs[lo+i].item
	}
	res := a.ap.ProcessFrameBatch(items)
	reports := make([]netproto.Report, 0, len(res))
	var alerts []netproto.Alert
	for i, r := range res {
		tx := lo + i
		if r.Err != nil {
			a.failed[tx] = errorStage(r.Err)
			continue
		}
		fr := r.Report
		if fr.Quarantined {
			continue // the AP drops a quarantined client's frames
		}
		a.sent[tx] = true
		a.bearing[tx] = fr.BearingDeg
		reports = append(reports, netproto.Report{APName: a.name, MAC: fr.MAC, BearingDeg: fr.BearingDeg, SeqNo: uint64(tx), Trace: w.txs[tx].trace})
		if fr.Decision == signature.Flag {
			a.flagged[tx] = true
			alerts = append(alerts, netproto.Alert{
				APName: a.name, MAC: fr.MAC, Distance: fr.Distance, Threshold: fr.Threshold,
				Stage: core.StageSpoofCheck, BearingDeg: fr.BearingDeg, HasBearing: true, Trace: w.txs[tx].trace,
			})
		}
	}
	t0 := time.Now()
	if err := a.agent.ag.SendBatch(reports); err != nil {
		return fmt.Errorf("%s: send: %w", a.name, err)
	}
	for _, al := range alerts {
		if err := a.agent.ag.SendAlertDetail(al); err != nil {
			return fmt.Errorf("%s: alert: %w", a.name, err)
		}
	}
	if traced {
		a.sendT += time.Since(t0)
		a.sends += 1 + len(alerts)
		a.batches = append(a.batches, reports)
		a.alerts = append(a.alerts, alerts...)
		for i := 0; i < len(items); i += phySampleEvery {
			a.layers.sample(a.shadow, a.ap, items[i])
		}
	}
	return nil
}

// errorStage names a pipeline failure's stage.
func errorStage(err error) string {
	var pe *core.PipelineError
	if errors.As(err, &pe) {
		return pe.Stage
	}
	return "other"
}

// phyPhase is one measured stretch of phy_fleet.
type phyPhase struct {
	lo, hi    int
	start     time.Time
	done      []time.Time // decision arrivals
	elapsed   time.Duration
	cpu       time.Duration
	rssMB     float64 // peak RSS at the end of the timed phase
	completed int
	decLat    []lat
	dirLat    []lat
	wire      wireCount
	dirFrames int // directive and legacy alert frames the agents received
	queueMax  int
	stats0    netproto.ControllerStats
	stats1    netproto.ControllerStats
	jr0, jr1  journal.Stats
}

// phase runs lockstep batches for dur, then drains the decisions and
// directives still in flight.
func (w *phyWorld) phase(dur time.Duration, traced bool) (*phyPhase, error) {
	p := &phyPhase{lo: w.next, stats0: w.ctrl.Stats(), jr0: journalTotals(w.ctrl)}
	wire0 := snapshotWire(w.aps[0].agent.cc, w.aps[1].agent.cc)
	dir0 := w.dirFrames()
	var sampler *queueDepthSampler
	if traced {
		sampler = sampleQueueDepth(w.ctrl, 5*time.Millisecond)
	}
	jobs := [2]chan [2]int{make(chan [2]int), make(chan [2]int)}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := range w.aps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range jobs[g] {
				errs <- w.batch(g, j[0], j[1], traced)
			}
		}(g)
	}
	cpu0 := processCPU()
	start := time.Now()
	var err error
	for time.Since(start) < dur && w.next+phyBatch <= len(w.txs) && err == nil {
		lo, hi := w.next, w.next+phyBatch
		now := time.Now()
		for tx := lo; tx < hi; tx++ {
			w.handed[tx] = now
		}
		jobs[0] <- [2]int{lo, hi}
		jobs[1] <- [2]int{lo, hi}
		err = errors.Join(<-errs, <-errs)
		w.next = hi
	}
	close(jobs[0])
	close(jobs[1])
	wg.Wait()
	if err != nil {
		return nil, err
	}
	p.hi = w.next

	// Drain: every transmission both APs reported owes a decision, every
	// alerted spoof a directive at both APs.
	dec, dir := w.expected(p.lo, p.hi)
	w.wantDec += dec
	w.wantDir += dir
	waitFor(5*time.Second, func() bool {
		return w.decisions.count() >= w.wantDec && w.dirArr[0].count() >= w.wantDir && w.dirArr[1].count() >= w.wantDir
	})
	p.cpu = processCPU() - cpu0
	p.rssMB = peakRSSMB()
	if sampler != nil {
		p.queueMax = sampler.finish()
	}
	p.dirFrames = w.dirFrames() - dir0
	p.wire = snapshotWire(w.aps[0].agent.cc, w.aps[1].agent.cc)
	p.wire.frames -= wire0.frames
	p.wire.bytes -= wire0.bytes
	p.stats1, p.jr1 = w.ctrl.Stats(), journalTotals(w.ctrl)

	var last time.Time
	for tx := p.lo; tx < p.hi; tx++ {
		if at, _, ok := w.decisions.get(tx); ok {
			p.completed++
			p.done = append(p.done, at)
			p.decLat = append(p.decLat, lat{w.handed[tx], at.Sub(w.handed[tx])})
			if at.After(last) {
				last = at
			}
		}
		if w.alerted(tx) {
			a0, _, ok0 := w.dirArr[0].get(tx)
			a1, _, ok1 := w.dirArr[1].get(tx)
			if ok0 && ok1 {
				if a1.After(a0) {
					a0 = a1
				}
				p.dirLat = append(p.dirLat, lat{w.handed[tx], a0.Sub(w.handed[tx])})
			}
		}
	}
	p.start, p.elapsed = start, last.Sub(start)
	return p, nil
}

func (w *phyWorld) dirFrames() int {
	n := 0
	for _, a := range w.aps {
		n += int(a.agent.directives.Load() + a.agent.legacy.Load())
	}
	return n
}

func (w *phyWorld) bothSent(tx int) bool { return w.aps[0].sent[tx] && w.aps[1].sent[tx] }

// fix is the fence decision the two reported bearings of tx imply; ok is
// false when they do not intersect (a degenerate geometry the fusion
// engine rightly refuses to fuse).
func (w *phyWorld) fix(tx int) (d locate.Decision, ok bool) {
	if !w.bothSent(tx) {
		return 0, false
	}
	d, _, err := w.fence.Decide([]locate.BearingObs{
		{AP: testbed.AP1, BearingDeg: w.aps[0].bearing[tx]},
		{AP: testbed.AP2, BearingDeg: w.aps[1].bearing[tx]},
	})
	return d, err == nil
}
func (w *phyWorld) alerted(tx int) bool { return w.aps[0].flagged[tx] || w.aps[1].flagged[tx] }

func (w *phyWorld) expected(lo, hi int) (dec, dir int) {
	for tx := lo; tx < hi; tx++ {
		if _, ok := w.fix(tx); ok {
			dec++
		}
		if w.alerted(tx) {
			dir++
		}
	}
	return dec, dir
}

// check is phy_fleet's oracle over transmissions [lo, hi).
func (w *phyWorld) check(b *bench, lo, hi int) {
	var attempted, failed, wrong, truthOK, decided, missingDec int
	var spoofs, spoofFlag, benign, benignFlag int
	for tx := lo; tx < hi; tx++ {
		t := w.txs[tx]
		for _, a := range w.aps {
			if a.failed[tx] != "" {
				continue
			}
			if t.spoof {
				spoofs++
				if a.flagged[tx] {
					spoofFlag++
				}
			} else {
				benign++
				if a.flagged[tx] {
					benignFlag++
				}
			}
		}
		if want, ok := w.fix(tx); ok {
			attempted++
			_, got, ok := w.decisions.get(tx)
			if !ok {
				failed++ // dropped at the subscriber or never fused
				missingDec++
			} else {
				if locate.Decision(got) != want {
					wrong++
				}
				decided++
				if (locate.Decision(got) == locate.Allow) == !t.spoof {
					truthOK++
				}
			}
		}
		if w.alerted(tx) {
			for _, da := range w.dirArr {
				attempted++
				if _, _, ok := da.get(tx); !ok {
					failed++ // withheld, or dropped at the broadcaster queue
				}
			}
		}
	}
	b.account(attempted, failed)
	b.note("phy_fleet: %d transmissions, %d decisions (%d missing), %d directive deliveries missing, %d spoofs (%d flagged), %d benign frames (%d flagged)",
		hi-lo, decided, missingDec, failed-missingDec, spoofs, spoofFlag, benign, benignFlag)
	if wrong > 0 {
		b.problem("phy_fleet: %d fence decisions disagree with the bearings the APs reported", wrong)
	}
	if f := ratio(float64(truthOK), float64(decided)); decided > 0 && f < phyTruthFloor {
		b.problem("phy_fleet: %.3f of fence decisions on the true side, floor %.2f", f, phyTruthFloor)
	}
	if f := ratio(float64(spoofFlag), float64(spoofs)); f < phySpoofFlagFloor {
		b.problem("phy_fleet: spoof flag share %.3f below %.2f", f, phySpoofFlagFloor)
	}
	if f := ratio(float64(benignFlag), float64(benign)); f > phyBenignFlagCeiling {
		b.problem("phy_fleet: benign flag share %.4f above %.2f", f, phyBenignFlagCeiling)
	}
	if b.traced {
		b.set("oracle.fence_truth_frac", ratio(float64(truthOK), float64(decided)), "frac")
		b.set("oracle.spoof_flag_frac", ratio(float64(spoofFlag), float64(spoofs)), "frac")
		b.set("oracle.benign_flag_frac", ratio(float64(benignFlag), float64(benign)), "frac")
	}
	// A benign frame an AP flagged (a false positive the ceiling above
	// bounds) owes its address a directive like any alert; a benign
	// address no AP flagged must never be quarantined.
	flaggedMACs := map[wifi.Addr]bool{}
	for tx := lo; tx < hi; tx++ {
		if w.alerted(tx) {
			flaggedMACs[w.txs[tx].item.Frame.Addr2] = true
		}
	}
	w.dirMu.Lock()
	defer w.dirMu.Unlock()
	for mac := range w.dirMACs {
		if mac[1] != 0x5b && !flaggedMACs[mac] {
			b.problem("phy_fleet: benign address %s was quarantined though no AP flagged it", mac)
		}
	}
}

// incidentCheck rebuilds one alerted spoof's timeline from the journal
// alone and checks it runs report -> alert -> directive -> ack.
func (w *phyWorld) incidentCheck(b *bench) {
	for tx := 0; tx < w.next; tx++ {
		if !w.bothSent(tx) || !w.alerted(tx) {
			continue
		}
		inc, err := journal.ReconstructIncident(w.dir, journal.IncidentQuery{Trace: w.txs[tx].trace})
		if err != nil {
			b.problem("phy_fleet: incident reconstruction: %v", err)
			return
		}
		seen := map[string]bool{}
		for _, e := range inc.Entries {
			seen[e.Type.String()] = true
		}
		for _, want := range []string{"report", "alert", "directive", "ack"} {
			if !seen[want] {
				b.problem("phy_fleet: incident timeline of trace %016x has no %s record", w.txs[tx].trace, want)
			}
		}
		return
	}
	b.problem("phy_fleet: no alerted spoof reported by both APs to reconstruct")
}

func runPhyFleet(b *bench) error {
	w, err := setupWorld(b, func(i int) (*phyWorld, error) { return setupPhy(b, i) })
	if err != nil {
		return err
	}
	defer w.close()
	if !b.traced {
		p, err := w.phase(b.seconds, false)
		if err != nil {
			return err
		}
		reportE2E(b, p.start, p.done, perTx(p.cpu, len(p.done)), p.rssMB, p.decLat, p.dirLat)
	} else {
		u, err := w.phase(b.seconds/2, false)
		if err != nil {
			return err
		}
		t, err := w.phase(b.seconds/2, true)
		if err != nil {
			return err
		}
		if err := w.reportLayers(b, u, t); err != nil {
			return err
		}
	}
	for _, a := range w.aps {
		a.agent.close()
	}
	w.ctrl.Close()
	w.check(b, 0, w.next)
	w.incidentCheck(b)
	return nil
}

// reportE2E sets the end-to-end metrics every workload reports, from
// the completion times of a phase that started at start. rssMB is the
// peak RSS read when the timed phase ended, before the slices analysing
// it were built.
func reportE2E(b *bench, start time.Time, done []time.Time, cpuPerTx, rssMB float64, decLat, dirLat []lat) {
	if len(done) == 0 {
		b.problem("no transmission completed")
		return
	}
	b.set("tx_per_s", windowRate(start, done), "1/s")
	b.set("cpu_us_per_tx", cpuPerTx, "us")
	b.reportLatency("decision", decLat)
	b.reportLatency("directive", dirLat)
	b.set("peak_rss_mb", rssMB, "MiB")
}

// reportLayers sets phy_fleet's per-layer metrics from the traced phase
// t, against the untraced phase u.
func (w *phyWorld) reportLayers(b *bench, u, t *phyPhase) error {
	var l apLayers
	var load wireLoad
	c := phaseCounts{
		tx: t.completed, elapsed: t.elapsed, cpu: t.cpu, untracedCPU: perTx(u.cpu, u.completed),
		stats0: t.stats0, stats1: t.stats1, jr0: t.jr0, jr1: t.jr1,
		wire: t.wire, queueMax: t.queueMax, dirFrames: t.dirFrames,
		apFrames: 2 * (t.hi - t.lo),
	}
	for _, a := range w.aps {
		l.merge(&a.layers)
		c.sendT += a.sendT
		c.sends += a.sends
		load.alerts = append(load.alerts, a.alerts...)
	}
	// The APs ran in lockstep: interleave their frames batch by batch, as
	// the controller received them.
	for k := range w.aps[0].batches {
		for _, a := range w.aps {
			load.batches = append(load.batches, a.batches[k])
			c.reports += len(a.batches[k])
		}
	}
	sort.SliceStable(load.alerts, func(i, j int) bool { return load.alerts[i].Trace < load.alerts[j].Trace })
	for _, al := range load.alerts {
		tx, _ := txOfTrace(w.seed, al.Trace)
		load.due = append(load.due, w.handed[tx])
	}
	c.alerts = len(load.alerts)
	c.directives = l.apply.n
	c.applyUS = l.apply.us()
	c.apUSPerFrame = l.modulate.us() + l.receive.us() + l.estimate.us() + l.match.us()

	errs := map[string]int{}
	flagged, processed := 0, 0
	for tx := t.lo; tx < t.hi; tx++ {
		for _, a := range w.aps {
			switch {
			case a.failed[tx] != "":
				errs[a.failed[tx]]++
			default:
				processed++
				if a.flagged[tx] {
					flagged++
				}
			}
		}
	}
	reportAPLayers(b, &l, errs, flagged, processed)
	c.liveThreats = liveThreats(w.ctrl)
	cl, err := replayControllerLayers(b.dir, load, 1, phyPolicy)
	if err != nil {
		return err
	}
	reportBreakdown(b, c, cl)
	b.reportTail("untraced.decision_p99_ms", u.decLat)
	b.reportTail("untraced.directive_p99_ms", u.dirLat)
	return nil
}
