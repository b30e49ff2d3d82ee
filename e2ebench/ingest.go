package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// controller_ingest — the control-plane ingest path, no PHY work. Two
// agents send pre-generated bearing ReportBatch frames at a fixed
// open-loop rate, well below saturation, into a 4-partition controller
// whose journals group-commit each frame's reports. A share of the
// targets lies outside the fence; one fenced-off transmission
// quarantines its address.
// Why: decode, partition routing, fusion and report group commit do all
// of the work, so an AP-layer change should show no effect here.
const (
	ingestRate         = 10000                // transmissions per second
	ingestEvery        = 2 * time.Millisecond // one ReportBatch per agent per tick
	ingestPopulation   = 100000               // inside client addresses
	ingestOutsideShare = 0.01                 // transmissions from outside the fence
	ingestPartitions   = 4
	// ingestMinCrossDeg is the smallest angle at which a target's two
	// bearing lines cross: above the fusion guard's 15-degree default, so
	// no fix is collinear (the loadgen pattern's FuseErrors).
	ingestMinCrossDeg = 25
)

// ingestPolicy quarantines an address on its first fenced-off
// transmission (fence weight equal to the quarantine score).
var ingestPolicy = defense.Policy{FenceWeight: defense.DefaultQuarantineScore}

// ingestAPs names the two agents, in the order of ingestTarget.bearing.
var ingestAPs = [2]string{"AP1", "AP2"}

// ingestTarget is one client address and where it transmits from.
type ingestTarget struct {
	mac     wifi.Addr
	inside  bool
	bearing [2]float64 // from AP1, AP2
}

// crossDeg is the angle between two bearing lines, in [0, 90].
func crossDeg(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 180)
	return math.Min(d, 180-d)
}

// genIngestTargets draws n addresses, inside the shell (1 m clear of
// it) or outside (1.5 m clear): random 48-bit values, so every partition
// gets work, each with a fixed target position whose two bearing lines
// cross at ingestMinCrossDeg or more and whose exact fix the fence
// decides as ground truth says.
func genIngestTargets(r *rand.Rand, seen map[wifi.Addr]bool, n int, inside bool) []ingestTarget {
	fence := buildingFence()
	aps := [2]geom.Point{testbed.AP1, testbed.AP2}
	out := make([]ingestTarget, 0, n)
	for len(out) < n {
		t := ingestTarget{inside: inside}
		v := r.Uint64()
		for k := range t.mac {
			t.mac[k] = byte(v >> (8 * k))
		}
		if seen[t.mac] {
			continue
		}
		for {
			var p geom.Point
			if inside {
				p = geom.Point{X: 1 + 22*r.Float64(), Y: 1 + 14*r.Float64()}
			} else {
				p = geom.Point{X: -8 + 40*r.Float64(), Y: -8 + 32*r.Float64()}
				if p.X > -1.5 && p.X < 25.5 && p.Y > -1.5 && p.Y < 17.5 {
					continue
				}
			}
			t.bearing = [2]float64{geom.BearingDeg(aps[0], p), geom.BearingDeg(aps[1], p)}
			if crossDeg(t.bearing[0], t.bearing[1]) < ingestMinCrossDeg {
				continue
			}
			d, _, err := fence.Decide([]locate.BearingObs{{AP: aps[0], BearingDeg: t.bearing[0]}, {AP: aps[1], BearingDeg: t.bearing[1]}})
			if err == nil && (d == locate.Allow) == inside {
				break
			}
		}
		seen[t.mac] = true
		out = append(out, t)
	}
	return out
}

// ingestWorld is everything controller_ingest builds in set-up.
//
// The generated inputs are txMAC and targets alone, compact and free of
// pointers; each tick's reports are filled into one reused slice per
// agent as they are sent, so the inputs add little to peak_rss_mb and
// nothing for the collector to trace.
type ingestWorld struct {
	seed    int64
	targets []ingestTarget // inside addresses first, then outside ones
	nInside int32          // targets[nInside:] lie outside the fence
	txMAC   []int32        // transmission -> target index
	next    int            // next tick
	dueTick []time.Time    // due time per tick

	ctrl   *netproto.Controller
	sub    *netproto.Subscription
	agents [2]*agentConn
	dir    string

	decisions *arrivals    // by transmission: arrival, decision
	dirArr    [2]*arrivals // by outside target (see dirSlot): directive at each agent
	dirMu     sync.Mutex
	dirMACs   map[wifi.Addr]bool
	decWG     sync.WaitGroup

	// Cumulative arrivals owed by the phases run so far.
	wantDec, wantDir int
}

func (w *ingestWorld) close() {
	for _, a := range w.agents {
		if a != nil {
			a.close()
		}
	}
	if w.ctrl != nil {
		w.ctrl.Close()
	}
	w.decWG.Wait()
}

func perTick() int { return int(ingestRate * ingestEvery / time.Second) }

func setupIngest(b *bench, rep int) (*ingestWorld, error) {
	w := &ingestWorld{seed: b.seed, dir: filepath.Join(b.dir, fmt.Sprintf("ingest-%d", rep))}
	// Inside addresses recur once per pass over the shuffled population,
	// so consecutive transmissions of one address are seconds apart and
	// its sequence numbers only grow. Each outside transmission is a
	// fresh address — a passing intruder — that the fence quarantines.
	r := rand.New(rand.NewPCG(uint64(b.seed), 0x5eed0002))
	seen := make(map[wifi.Addr]bool, ingestPopulation)
	w.targets = genIngestTargets(r, seen, ingestPopulation, true)
	ticks := int(b.seconds/ingestEvery) + 1
	n := ticks * perTick()
	perm := r.Perm(ingestPopulation)
	w.txMAC = make([]int32, n)
	nOut, nIn := 0, 0
	for i := range w.txMAC {
		if r.Float64() < ingestOutsideShare {
			w.txMAC[i] = int32(ingestPopulation + nOut)
			nOut++
		} else {
			w.txMAC[i] = int32(perm[nIn%ingestPopulation])
			nIn++
		}
	}
	w.nInside = ingestPopulation
	w.targets = append(w.targets, genIngestTargets(r, seen, nOut, false)...)
	w.dueTick = make([]time.Time, ticks)
	w.decisions = newArrivals(n)
	w.dirArr = [2]*arrivals{newArrivals(nOut), newArrivals(nOut)}
	w.dirMACs = map[wifi.Addr]bool{}

	ctrl, addr, err := startController(buildingFence(), controllerConfig{partitions: ingestPartitions, policy: ingestPolicy, dir: w.dir})
	if err != nil {
		return nil, err
	}
	w.ctrl = ctrl
	w.sub = ctrl.Subscribe(1 << 15)
	w.decWG.Add(1)
	go func() {
		defer w.decWG.Done()
		for d := range w.sub.C {
			w.decisions.note(int(d.SeqNo), time.Now(), int(d.Decision))
		}
	}()
	pos := [2]geom.Point{testbed.AP1, testbed.AP2}
	for g := range w.agents {
		a, err := dialAgent(addr, ingestAPs[g], pos[g])
		if err != nil {
			w.close()
			return nil, err
		}
		w.agents[g] = a
		g := g
		a.listen(func(d netproto.Directive, at time.Time) {
			if d.Action == defense.ActionAllow {
				return
			}
			if tx, ok := txOfTrace(w.seed, d.Trace); ok && tx < len(w.txMAC) {
				if o, ok := w.dirSlot(tx); ok {
					w.dirArr[g].note(o, at, int(d.Action))
				}
			}
			w.dirMu.Lock()
			w.dirMACs[d.MAC] = true
			w.dirMu.Unlock()
		}, nil)
	}
	return w, nil
}

// ingestPhase is one measured stretch of controller_ingest.
type ingestPhase struct {
	lo, hi       int // transmissions
	start        time.Time
	done         []time.Time // decision arrivals
	elapsed, cpu time.Duration
	rssMB        float64 // peak RSS at the end of the timed phase
	completed    int
	decLat       []lat
	dirLat       []lat
	lateMax      time.Duration
	genCPU       time.Duration
	sendT        time.Duration
	sends        int
	wire         wireCount
	dirFrames    int
	queueMax     int
	stats0       netproto.ControllerStats
	stats1       netproto.ControllerStats
	jr0, jr1     journal.Stats
}

// generate is one agent's open-loop generator: tick k's batch is sent
// at its due time however long earlier sends took.
func (w *ingestWorld) generate(g int, ol openLoop, k0, k1 int, traced bool) (lateMax, cpu, sendT time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	rs := make([]netproto.Report, 0, perTick())
	for k := k0; k < k1; k++ {
		ol.wait(k - k0)
		rs = w.reports(rs, g, k)
		t0 := time.Now()
		if err = w.agents[g].ag.SendBatch(rs); err != nil {
			break
		}
		if traced {
			sendT += time.Since(t0)
		}
	}
	return ol.late, threadCPU() - cpu0, sendT, err
}

func (w *ingestWorld) phase(dur time.Duration, traced bool) (*ingestPhase, error) {
	k0 := w.next
	k1 := min(k0+int(dur/ingestEvery), len(w.dueTick))
	p := &ingestPhase{lo: k0 * perTick(), hi: k1 * perTick(), stats0: w.ctrl.Stats(), jr0: journalTotals(w.ctrl)}
	wire0 := snapshotWire(w.agents[0].cc, w.agents[1].cc)
	dir0 := w.dirFrames()
	var sampler *queueDepthSampler
	if traced {
		sampler = sampleQueueDepth(w.ctrl, 5*time.Millisecond)
	}
	cpu0 := processCPU()
	ol := openLoop{start: time.Now().Add(time.Millisecond), every: ingestEvery}
	for k := k0; k < k1; k++ {
		w.dueTick[k] = ol.due(k - k0)
	}
	type genResult struct {
		late, cpu, sendT time.Duration
		err              error
	}
	var gens [2]genResult
	var wg sync.WaitGroup
	for g := range w.agents {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := &gens[g]
			r.late, r.cpu, r.sendT, r.err = w.generate(g, ol, k0, k1, traced)
		}(g)
	}
	wg.Wait()
	w.next = k1
	for _, r := range gens {
		if r.err != nil {
			return nil, fmt.Errorf("send: %w", r.err)
		}
		p.lateMax = max(p.lateMax, r.late)
		p.genCPU += r.cpu
		p.sendT += r.sendT
	}
	p.sends = 2 * (k1 - k0)
	w.wantDec += p.hi - p.lo
	w.wantDir += w.expectedDirectives(p.lo, p.hi)
	waitFor(5*time.Second, func() bool {
		return w.decisions.count() >= w.wantDec && w.dirArr[0].count() >= w.wantDir && w.dirArr[1].count() >= w.wantDir
	})
	p.cpu = processCPU() - cpu0
	p.rssMB = peakRSSMB()
	if sampler != nil {
		p.queueMax = sampler.finish()
	}
	p.dirFrames = w.dirFrames() - dir0
	wire1 := snapshotWire(w.agents[0].cc, w.agents[1].cc)
	p.wire = wireCount{frames: wire1.frames - wire0.frames, bytes: wire1.bytes - wire0.bytes}
	p.stats1, p.jr1 = w.ctrl.Stats(), journalTotals(w.ctrl)

	var last time.Time
	for tx := p.lo; tx < p.hi; tx++ {
		due := w.dueTick[tx/perTick()]
		if at, _, ok := w.decisions.get(tx); ok {
			p.completed++
			p.done = append(p.done, at)
			p.decLat = append(p.decLat, lat{due, at.Sub(due)})
			if at.After(last) {
				last = at
			}
		}
		if o, ok := w.dirSlot(tx); ok {
			a0, _, ok0 := w.dirArr[0].get(o)
			a1, _, ok1 := w.dirArr[1].get(o)
			if ok0 && ok1 {
				p.dirLat = append(p.dirLat, lat{due, later(a0, a1).Sub(due)})
			}
		}
	}
	p.start, p.elapsed = ol.start, last.Sub(ol.start)
	return p, nil
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func (w *ingestWorld) dirFrames() int {
	n := 0
	for _, a := range w.agents {
		n += int(a.directives.Load() + a.legacy.Load())
	}
	return n
}

// reports fills rs with agent g's reports for tick k.
func (w *ingestWorld) reports(rs []netproto.Report, g, k int) []netproto.Report {
	rs = rs[:0]
	for i := k * perTick(); i < (k+1)*perTick(); i++ {
		t := &w.targets[w.txMAC[i]]
		rs = append(rs, netproto.Report{APName: ingestAPs[g], MAC: t.mac, BearingDeg: t.bearing[g], SeqNo: uint64(i), Trace: txTrace(w.seed, i)})
	}
	return rs
}

// expectedDirectives counts the transmissions in [lo, hi) owed a
// quarantine directive: every outside transmission.
func (w *ingestWorld) expectedDirectives(lo, hi int) int {
	n := 0
	for tx := lo; tx < hi; tx++ {
		if _, ok := w.dirSlot(tx); ok {
			n++
		}
	}
	return n
}

// dirSlot is the directive-arrival slot of transmission tx: the index of
// its outside target, each of which transmits once. ok is false for an
// inside transmission, which owes no directive.
func (w *ingestWorld) dirSlot(tx int) (slot int, ok bool) {
	o := w.txMAC[tx] - w.nInside
	return int(o), o >= 0
}

// check is controller_ingest's oracle over transmissions [0, hi).
func (w *ingestWorld) check(b *bench, hi int) {
	var attempted, failed, wrong int
	for tx := 0; tx < hi; tx++ {
		t := &w.targets[w.txMAC[tx]]
		attempted++
		_, got, ok := w.decisions.get(tx)
		switch {
		case !ok:
			failed++
		case (locate.Decision(got) == locate.Allow) != t.inside:
			wrong++
		}
		if o, ok := w.dirSlot(tx); ok {
			for _, da := range w.dirArr {
				attempted++
				if _, _, ok := da.get(o); !ok {
					failed++
				}
			}
		}
	}
	b.account(attempted, failed)
	if wrong > 0 {
		b.problem("controller_ingest: %d fence decisions contradict ground truth", wrong)
	}
	outside := map[wifi.Addr]bool{}
	for _, t := range w.targets {
		if !t.inside {
			outside[t.mac] = true
		}
	}
	w.dirMu.Lock()
	defer w.dirMu.Unlock()
	for mac := range w.dirMACs {
		if !outside[mac] {
			b.problem("controller_ingest: inside address %s was quarantined", mac)
		}
	}
}

func runControllerIngest(b *bench) error {
	w, err := setupWorld(b, func(i int) (*ingestWorld, error) { return setupIngest(b, i) })
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
	for _, a := range w.agents {
		a.close()
	}
	w.ctrl.Close()
	w.check(b, w.next*perTick())
	return nil
}

// reportLayers sets controller_ingest's per-layer metrics from the
// traced phase t, against the untraced phase u.
func (w *ingestWorld) reportLayers(b *bench, u, t *ingestPhase) error {
	var load wireLoad
	for k := t.lo / perTick(); k < t.hi/perTick(); k++ {
		load.batches = append(load.batches, w.reports(nil, 0, k), w.reports(nil, 1, k))
	}
	c := phaseCounts{
		tx: t.completed, elapsed: t.elapsed, cpu: t.cpu, untracedCPU: perTx(u.cpu, u.completed),
		reports: 2 * (t.hi - t.lo), sends: t.sends, sendT: t.sendT,
		dirFrames: t.dirFrames, stats0: t.stats0, stats1: t.stats1, jr0: t.jr0, jr1: t.jr1,
		wire: t.wire, queueMax: t.queueMax, lateMax: t.lateMax, genCPU: t.genCPU,
	}
	reportAPLayers(b, &apLayers{}, nil, 0, 0)
	c.liveThreats = liveThreats(w.ctrl)
	cl, err := replayControllerLayers(b.dir, load, ingestPartitions, ingestPolicy)
	if err != nil {
		return err
	}
	reportBreakdown(b, c, cl)
	b.reportTail("untraced.decision_p99_ms", u.decLat)
	b.reportTail("untraced.directive_p99_ms", u.dirLat)
	return nil
}
