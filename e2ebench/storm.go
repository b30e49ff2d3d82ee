package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/journal"
	"secureangle/internal/netproto"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// spoof_storm — the defense loop, with writes beside reads. One agent
// sends scored spoof alerts with bearings for fresh addresses at a fixed
// open-loop rate; quarantine and null-steer directives fan out to both
// agents and the other agent acks each one. Every alert, directive and
// ack is a single journal record. The half-life is short, so the
// threat table reaches a steady size with releases flowing. Once a
// second the alerting agent reads the threat table (QueryThreats), which
// shares the broadcaster queue with the directive writes.
// Why: defense, the broadcaster/socket edge and single-record journal
// appends do the work; a group-commit or queue change that helps
// controller_ingest but hurts this path shows here.
const (
	// stormRate keeps the defense sweep's release bursts (everything due
	// in a 50 ms tick goes out at once) well inside the 16-deep
	// broadcaster queue; at 200 alerts/s a few per thousand overflowed.
	stormRate       = 100 // alerts per second
	stormQueryEvery = time.Second
	stormThreshold  = 0.12 // the alerting AP's signature threshold
)

// stormPolicy: alerts escalate straight to quarantine, the more severe
// half to null-steer; scores halve every 200 ms, so a client is released
// about half a second after its alert and forgotten a few seconds later.
var stormPolicy = defense.Policy{HalfLife: 200 * time.Millisecond, MinQuarantine: 300 * time.Millisecond, NullSteerScore: 3}

// genStormAlerts generates n alerts from the seed: a fresh address each,
// a signature distance 10% to 100% past the threshold, a random bearing.
func genStormAlerts(seed int64, n int) []netproto.Alert {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed0004))
	out := make([]netproto.Alert, n)
	for k := range out {
		out[k] = netproto.Alert{
			APName: "AP1", MAC: wifi.Addr{0x02, 0x5c, byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)},
			Distance: stormThreshold * (1.1 + 0.9*r.Float64()), Threshold: stormThreshold,
			Stage: "spoofcheck", BearingDeg: 360 * r.Float64(), HasBearing: true, Trace: txTrace(seed, k),
		}
	}
	return out
}

// stormWorld is everything spoof_storm builds in set-up.
type stormWorld struct {
	seed           int64
	alerts         []netproto.Alert
	due            []time.Time
	next           int
	ctrl           *netproto.Controller
	alerter, acker *agentConn
	dir            string

	verdict   *arrivals // by alert: countermeasure directive at the alerting agent
	fleet     *arrivals // by alert: countermeasure directive at the other agent
	wrongMAC  atomic.Int64
	ackQ      chan defense.Directive
	acked     atomic.Int64
	received  atomic.Int64 // directives the acking agent received
	ackWG     sync.WaitGroup
	queryMu   sync.Mutex
	querySent map[uint32]time.Time
	queryRTT  []time.Duration
}

func (w *stormWorld) close() {
	for _, a := range []*agentConn{w.alerter, w.acker} {
		if a != nil {
			a.close()
		}
	}
	if w.ackQ != nil {
		close(w.ackQ)
		w.ackWG.Wait()
		w.ackQ = nil
	}
	if w.ctrl != nil {
		w.ctrl.Close()
	}
}

func setupStorm(b *bench, rep int) (*stormWorld, error) {
	w := &stormWorld{seed: b.seed, dir: filepath.Join(b.dir, fmt.Sprintf("storm-%d", rep)), querySent: map[uint32]time.Time{}}
	n := int(stormRate*b.seconds.Seconds()) + stormRate
	w.alerts = genStormAlerts(b.seed, n)
	w.due = make([]time.Time, n)
	w.verdict, w.fleet = newArrivals(n), newArrivals(n)
	ctrl, addr, err := startController(buildingFence(), controllerConfig{partitions: 1, policy: stormPolicy, dir: w.dir})
	if err != nil {
		return nil, err
	}
	w.ctrl = ctrl
	if w.alerter, err = dialAgent(addr, "AP1", testbed.AP1); err != nil {
		w.close()
		return nil, err
	}
	if w.acker, err = dialAgent(addr, "AP2", testbed.AP2); err != nil {
		w.close()
		return nil, err
	}
	// note records a countermeasure directive's arrival against its alert.
	note := func(into *arrivals) func(netproto.Directive, time.Time) {
		return func(d netproto.Directive, at time.Time) {
			if d.Action == defense.ActionAllow {
				return
			}
			k, ok := txOfTrace(w.seed, d.Trace)
			if !ok || k >= len(w.alerts) || w.alerts[k].MAC != d.MAC {
				w.wrongMAC.Add(1)
				return
			}
			into.note(k, at, int(d.Action))
		}
	}
	w.alerter.listen(note(w.verdict), func(id uint32, at time.Time) {
		w.queryMu.Lock()
		if sent, ok := w.querySent[id]; ok {
			w.queryRTT = append(w.queryRTT, at.Sub(sent))
		}
		w.queryMu.Unlock()
	})
	// The acking agent's consumer hands every directive (releases too) to
	// its acker goroutine; the queue holds a whole run's directives so the
	// consumer never blocks on it.
	w.ackQ = make(chan defense.Directive, 4*n)
	fleet := note(w.fleet)
	w.acker.listen(func(d netproto.Directive, at time.Time) {
		fleet(d, at)
		w.received.Add(1)
		w.ackQ <- d.Directive
	}, nil)
	w.ackWG.Add(1)
	go func() {
		defer w.ackWG.Done()
		for d := range w.ackQ {
			d.Reporter = w.acker.name
			// Acks fail only once the session closes at the end of the run;
			// the drain counts the ones that went out.
			if err := w.acker.ag.SendDirectiveAck(d); err == nil {
				w.acked.Add(1)
			}
		}
	}()
	return w, nil
}

// stormPhase is one measured stretch of spoof_storm.
type stormPhase struct {
	lo, hi       int
	start        time.Time
	done         []time.Time // directive arrivals at the other agent
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
	queryMS      float64
	stats0       netproto.ControllerStats
	stats1       netproto.ControllerStats
	jr0, jr1     journal.Stats
}

// generate is the alerting agent's open-loop generator: alert k at its
// due time, and a threat-table query every stormQueryEvery. Query replies are
// timed by the agent's consumer, so the generator never waits on them.
func (w *stormWorld) generate(ol openLoop, k0, k1 int, traced bool) (p stormPhase, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPU()
	perQuery := int(stormQueryEvery / ol.every)
	for k := k0; k < k1; k++ {
		ol.wait(k - k0)
		t0 := time.Now()
		if err = w.alerter.ag.SendAlertDetail(w.alerts[k]); err != nil {
			return p, fmt.Errorf("alert: %w", err)
		}
		p.sends++
		if (k-k0)%perQuery == perQuery-1 {
			id := uint32(k)
			w.queryMu.Lock()
			w.querySent[id] = time.Now()
			w.queryMu.Unlock()
			if err = w.alerter.ag.Query(netproto.Query{All: true, ID: id, Kind: netproto.KindThreats}); err != nil {
				return p, fmt.Errorf("query: %w", err)
			}
			p.sends++
		}
		if traced {
			p.sendT += time.Since(t0)
		}
	}
	p.lateMax, p.genCPU = ol.late, threadCPU()-cpu0
	return p, nil
}

func (w *stormWorld) phase(dur time.Duration, traced bool) (*stormPhase, error) {
	k0 := w.next
	every := time.Second / stormRate
	k1 := min(k0+int(dur/every), len(w.alerts))
	stats0, jr0 := w.ctrl.Stats(), journalTotals(w.ctrl)
	wire0 := snapshotWire(w.alerter.cc, w.acker.cc)
	dir0 := w.dirFrames()
	w.queryMu.Lock()
	rtt0 := len(w.queryRTT)
	w.queryMu.Unlock()
	var sampler *queueDepthSampler
	if traced {
		sampler = sampleQueueDepth(w.ctrl, 5*time.Millisecond)
	}
	cpu0 := processCPU()
	ol := openLoop{start: time.Now().Add(time.Millisecond), every: every}
	for k := k0; k < k1; k++ {
		w.due[k] = ol.due(k - k0)
	}
	g, err := w.generate(ol, k0, k1, traced)
	if err != nil {
		return nil, err
	}
	p := &g
	p.lo, p.hi, p.stats0, p.jr0 = k0, k1, stats0, jr0
	w.next = k1
	waitFor(5*time.Second, func() bool {
		return w.fleet.count() >= k1 && w.verdict.count() >= k1 && w.acked.Load() >= w.received.Load()
	})
	p.cpu = processCPU() - cpu0
	p.rssMB = peakRSSMB()
	if sampler != nil {
		p.queueMax = sampler.finish()
	}
	p.dirFrames = w.dirFrames() - dir0
	wire1 := snapshotWire(w.alerter.cc, w.acker.cc)
	p.wire = wireCount{frames: wire1.frames - wire0.frames, bytes: wire1.bytes - wire0.bytes}
	p.stats1, p.jr1 = w.ctrl.Stats(), journalTotals(w.ctrl)
	w.queryMu.Lock()
	var q acc
	for _, d := range w.queryRTT[rtt0:] {
		q.add(d)
	}
	w.queryMu.Unlock()
	p.queryMS = q.us() / 1000

	var last time.Time
	for k := k0; k < k1; k++ {
		if at, _, ok := w.verdict.get(k); ok {
			p.decLat = append(p.decLat, lat{w.due[k], at.Sub(w.due[k])})
		}
		if at, _, ok := w.fleet.get(k); ok {
			p.completed++
			p.done = append(p.done, at)
			p.dirLat = append(p.dirLat, lat{w.due[k], at.Sub(w.due[k])})
			if at.After(last) {
				last = at
			}
		}
	}
	p.start, p.elapsed = ol.start, last.Sub(ol.start)
	return p, nil
}

// dirFrames counts directive and legacy alert frames at the acking agent.
func (w *stormWorld) dirFrames() int {
	return int(w.acker.directives.Load() + w.acker.legacy.Load())
}

// check is spoof_storm's oracle over alerts [0, hi): every alert owes a
// countermeasure directive carrying its trace at both agents, directives
// name only alerted addresses, releases flow, and replaying the journal
// re-derives the live directive sequence of every address.
func (w *stormWorld) check(b *bench, hi int, releases uint64) {
	attempted, failed := 0, 0
	var missing [2]int
	for k := 0; k < hi; k++ {
		for i, a := range []*arrivals{w.verdict, w.fleet} {
			attempted++
			if _, _, ok := a.get(k); !ok {
				failed++
				missing[i]++
			}
		}
	}
	b.account(attempted, failed)
	b.note("spoof_storm: %d alerts, directives missing at the alerting agent %d, at the other agent %d", hi, missing[0], missing[1])
	if n := w.wrongMAC.Load(); n > 0 {
		b.problem("spoof_storm: %d directives name an address no alert carried", n)
	}
	if releases == 0 {
		b.problem("spoof_storm: no quarantine was released during the run")
	}
	res, err := journal.Replay(w.dir, journal.ReplayOptions{Fence: buildingFence(), Policy: stormPolicy})
	if err != nil {
		b.problem("spoof_storm: journal replay: %v", err)
		return
	}
	replayed := make([]defense.Directive, len(res.Directives))
	for i, d := range res.Directives {
		replayed[i] = d.Directive
	}
	if bad := directiveMismatches(res.RecordedDirectives, replayed); bad > 0 {
		b.problem("spoof_storm: journal replay diverges from the live directive sequence for %d addresses", bad)
	}
}

// directiveMismatches counts addresses whose replayed directive sequence
// (action and state transition, in order) differs from the recorded
// one. A replay may end with one extra release: it sweeps at the final
// record's timestamp, which the live engine's last tick may not reach.
func directiveMismatches(recorded, replayed []defense.Directive) int {
	type step struct {
		action   defense.Action
		from, to defense.State
	}
	seq := func(ds []defense.Directive) map[wifi.Addr][]step {
		m := map[wifi.Addr][]step{}
		for _, d := range ds {
			m[d.MAC] = append(m[d.MAC], step{d.Action, d.From, d.To})
		}
		return m
	}
	rec, rep := seq(recorded), seq(replayed)
	bad := 0
	for mac, p := range rep {
		r := rec[mac]
		if len(p) == len(r)+1 && p[len(p)-1].action == defense.ActionAllow {
			p = p[:len(r)]
		}
		if len(p) != len(r) {
			bad++
			continue
		}
		for i := range p {
			if p[i] != r[i] {
				bad++
				break
			}
		}
	}
	for mac := range rec {
		if _, ok := rep[mac]; !ok {
			bad++
		}
	}
	return bad
}

func runSpoofStorm(b *bench) error {
	w, err := setupWorld(b, func(i int) (*stormWorld, error) { return setupStorm(b, i) })
	if err != nil {
		return err
	}
	defer w.close()
	stats0 := w.ctrl.Stats()
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
	releases := w.ctrl.Stats().Defense.Releases - stats0.Defense.Releases
	w.close()
	w.check(b, w.next, releases)
	return nil
}

// reportLayers sets spoof_storm's per-layer metrics from the traced
// phase t, against the untraced phase u.
func (w *stormWorld) reportLayers(b *bench, u, t *stormPhase) error {
	load := wireLoad{alerts: w.alerts[t.lo:t.hi], due: w.due[t.lo:t.hi]}
	c := phaseCounts{
		tx: t.completed, elapsed: t.elapsed, cpu: t.cpu, untracedCPU: perTx(u.cpu, u.completed),
		sends: t.sends, sendT: t.sendT, alerts: t.hi - t.lo, dirFrames: t.dirFrames,
		stats0: t.stats0, stats1: t.stats1, jr0: t.jr0, jr1: t.jr1,
		wire: t.wire, queueMax: t.queueMax, queryMS: t.queryMS, lateMax: t.lateMax, genCPU: t.genCPU,
	}
	reportAPLayers(b, &apLayers{}, nil, 0, 0)
	c.liveThreats = liveThreats(w.ctrl)
	cl, err := replayControllerLayers(b.dir, load, 1, stormPolicy)
	if err != nil {
		return err
	}
	reportBreakdown(b, c, cl)
	b.reportTail("untraced.decision_p99_ms", u.decLat)
	b.reportTail("untraced.directive_p99_ms", u.dirLat)
	return nil
}
