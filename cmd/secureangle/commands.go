package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secureangle/internal/beamform"
	"secureangle/internal/core"
	"secureangle/internal/defense"
	"secureangle/internal/dsp"
	"secureangle/internal/experiments"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/ops"
	"secureangle/internal/radio"
	"secureangle/internal/rng"
	"secureangle/internal/testbed"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

func runFig5(seed int64, packets int) error {
	res, err := experiments.RunFig5(seed, packets)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runFig6(seed int64, spectra bool) error {
	res, err := experiments.RunFig6(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if spectra {
		fmt.Println("\n# TSV pseudospectra: client, t, angle, dB")
		for _, c := range res.Clients {
			for _, s := range c.Snapshots {
				for i, db := range s.SpectrumDB {
					fmt.Printf("%d\t%g\t%.1f\t%.2f\n", c.ID, s.OffsetSec, res.GridDeg[i], db)
				}
			}
		}
	}
	return nil
}

func runFig7(seed int64, spectra bool) error {
	res, err := experiments.RunFig7(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if spectra {
		fmt.Println("\n# TSV pseudospectra: antennas, angle, dB")
		for _, row := range res.Rows {
			for i, db := range row.SpectrumDB {
				fmt.Printf("%d\t%.1f\t%.2f\n", row.Antennas, row.GridDeg[i], db)
			}
		}
	}
	return nil
}

func runAccuracy(seed int64, packets int) error {
	res, err := experiments.RunAccuracy(seed, packets)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runFence(seed int64) error {
	res, err := experiments.RunFence(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runSpoof(seed int64, packets int) error {
	res, err := experiments.RunSpoof(seed, 5, packets)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runAblation(seed int64) error {
	est, err := experiments.RunEstimatorAblation(seed, 3)
	if err != nil {
		return err
	}
	fmt.Print(est.Render())
	cal, err := experiments.RunCalibrationAblation(seed, 5)
	if err != nil {
		return err
	}
	fmt.Print(cal.Render())
	pvs, err := experiments.RunPacketVsSample(seed, 8)
	if err != nil {
		return err
	}
	fmt.Print(pvs.Render())
	gf, err := experiments.RunGridFreeAblation(seed, 3)
	if err != nil {
		return err
	}
	fmt.Print(gf.Render())
	return nil
}

func runTrack(seed int64) error {
	res, err := experiments.RunMobility(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runInterference(seed int64) error {
	res, err := experiments.RunInterference(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func testbedMap() string { return testbed.Map() }

func runSNR(seed int64, packets int) error {
	res, err := experiments.RunSNRSweep(seed, packets)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runBeamform(seed int64) error {
	res, err := experiments.RunBeamform(seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

// runCalibrate narrates the section 2.2 procedure: show the true hidden
// offsets, the estimates recovered from the cabled reference capture, and
// the residual after applying them.
func runCalibrate(seed int64) error {
	arr := testbed.CircularArray()
	fe := radio.NewFrontEnd(arr, testbed.AP1, rng.New(seed), radio.WithNoiseFloor(testbed.NoiseFloor))
	fmt.Println("Section 2.2 calibration: USRP2 reference tone through equal-length cables")
	fmt.Printf("%-8s %-16s %-16s %-12s\n", "chain", "true offset", "estimated", "error(rad)")
	est := fe.Calibrate(4000)
	for a := 0; a < arr.N(); a++ {
		truth := dsp.WrapPhase(fe.PhaseOffsets[a] - fe.PhaseOffsets[0])
		errRad := math.Abs(dsp.WrapPhase(est[a] - truth))
		fmt.Printf("%-8d %-16.4f %-16.4f %-12.2e\n", a+1, truth, est[a], errRad)
	}
	fmt.Println("\nOffsets subtracted from over-the-air captures restore the steering model of section 2.1.")
	return nil
}

// runTracks dials a running controller as an observer session (an
// empty Hello name: never registered as a bearing source) and prints
// its live mobility traces — the wire face of the fusion engine's
// per-client alpha-beta tracks. An empty mac queries all. token
// authenticates the observer against a -require-auth controller (any
// enrolled AP's token works for an observer session).
func runTracks(addr, mac, token string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := netproto.DialContext(ctx, addr, netproto.Hello{Pos: geom.Point{}, Token: token})
	if err != nil {
		return err
	}
	defer a.Close()
	q := netproto.Query{All: mac == ""}
	if mac != "" {
		addr, err := wifi.ParseAddr(mac)
		if err != nil {
			return err
		}
		q.MAC = addr
	}
	states, err := a.QueryTracks(ctx, q)
	if err != nil {
		return err
	}
	if len(states) == 0 {
		fmt.Println("no live tracks")
		return nil
	}
	fmt.Printf("%-18s %-16s %-16s %6s %8s %8s %s\n", "MAC", "pos(m)", "vel(m/s)", "fixes", "lastSeq", "age", "fence")
	for _, ts := range states {
		fmt.Printf("%-18s %-16v %-16v %6d %8d %8s %s\n",
			ts.MAC, ts.Pos, ts.Vel, ts.Fixes, ts.LastSeq,
			time.Since(ts.Updated).Truncate(time.Millisecond), ts.Decision)
	}
	return nil
}

// runDefense dials a running controller as an observer session and
// prints the defense engine's live threat states — the wire face of the
// closed defense loop. A non-empty mac filters to one client; release
// instead asks the controller for an operator release of that MAC.
// token authenticates against a -require-auth controller.
func runDefense(addr, mac string, release bool, token string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	a, err := netproto.DialContext(ctx, addr, netproto.Hello{Pos: geom.Point{}, Token: token})
	if err != nil {
		return err
	}
	defer a.Close()
	if release {
		if mac == "" {
			return fmt.Errorf("defense -release needs -mac")
		}
		addr, err := wifi.ParseAddr(mac)
		if err != nil {
			return err
		}
		if err := a.SendRelease(addr); err != nil {
			return err
		}
		fmt.Printf("release of %s requested\n", addr)
		return nil
	}
	q := netproto.Query{All: mac == ""}
	if mac != "" {
		addr, err := wifi.ParseAddr(mac)
		if err != nil {
			return err
		}
		q.MAC = addr
	}
	states, err := a.QueryThreats(ctx, q)
	if err != nil {
		return err
	}
	if len(states) == 0 {
		fmt.Println("no tracked threats")
		return nil
	}
	fmt.Printf("%-18s %-10s %-10s %6s %6s %6s %6s %8s %-10s %s\n",
		"MAC", "state", "action", "score", "flags", "drops", "speed", "bearing", "by", "age")
	for _, st := range states {
		fmt.Printf("%-18s %-10s %-10s %6.2f %6d %6d %6d %8.1f %-10s %s\n",
			st.MAC, st.State, st.Action, st.Score, st.Flags, st.FenceDrops, st.SpeedFlags,
			st.BearingDeg, st.LastAP, time.Since(st.Updated).Truncate(time.Millisecond))
	}
	return nil
}

// serveOptions carries `serve`/`record`'s knobs.
type serveOptions struct {
	addr, journalDir, opsAddr string
	requireAuth               bool
	// partitions shards the controller core by MAC range (1 = the
	// monolithic layout, byte-compatible with earlier releases).
	partitions int
	// segmentBytes / snapshotEvery tune the flight recorder (zero =
	// package defaults; negative snapshotEvery disables snapshots).
	segmentBytes  int64
	snapshotEvery time.Duration
	// pprof mounts /debug/pprof on the ops endpoint.
	pprof bool
	// logLevel is the controller logger's minimum level ("debug",
	// "info", "warn", "error"; empty = info).
	logLevel string
}

// runServe runs the fence controller; a non-empty journalDir turns on
// the flight recorder (the `record` command path): state is recovered
// from the directory before listening, and every decision-relevant
// event is journalled from then on. A non-empty opsAddr serves the
// operations endpoint (/metrics, /status, /enroll); requireAuth makes
// enrollment tokens mandatory for every new session.
func runServe(o serveOptions) error {
	_, shell := testbed.Building()
	fence := &locate.Fence{Boundary: shell}
	c := netproto.NewController(fence)
	c.RequireAuth = o.requireAuth
	c.PprofOps = o.pprof
	if o.partitions > 0 {
		c.Partitions = o.partitions
	}
	if o.snapshotEvery != 0 {
		c.SnapshotInterval = o.snapshotEvery
	}
	// Controller log lines go through the leveled key=value logger:
	// timestamped, level-tagged, and carrying the mac=/ap=/trace=
	// fields `secureangle incident` timelines join against.
	logger := ops.NewLogger(os.Stdout)
	logger.SetLevel(ops.ParseLevel(o.logLevel))
	c.Logf = logger.Printf
	if o.journalDir != "" {
		opts := journal.Options{SegmentBytes: o.segmentBytes, Logf: c.Logf}
		if err := c.WithJournalDir(o.journalDir, opts); err != nil {
			return err
		}
		fmt.Printf("flight recorder journalling to %s (%d partition(s), fsync policy: interval)\n",
			o.journalDir, c.Partitions)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("fence controller listening on %s (boundary: building shell)\n", ln.Addr())
	c.Serve(ln)
	if o.opsAddr != "" {
		oln, err := net.Listen("tcp", o.opsAddr)
		if err != nil {
			c.Close()
			return err
		}
		c.ServeOps(oln)
		auth := "optional"
		if o.requireAuth {
			auth = "required"
		}
		fmt.Printf("ops endpoint on http://%s (/metrics /status /enroll; auth %s)\n", oln.Addr(), auth)
	}

	sub := c.Subscribe(64)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nshutting down")
		c.Close()
	}()
	for d := range sub.C {
		fmt.Printf("decision: %s seq %d -> %s at %v (APs %v)\n", d.MAC, d.SeqNo, d.Decision, d.Pos, d.APs)
	}
	return nil
}

// runLoadgen hammers a running controller with synthetic traffic: two
// AP identities reporting bearings for a MAC population spread across
// the whole address space (so every partition sees work), plus a spoof
// alert sprinkled in every few hundred reports. A connection that dies
// mid-run is reported but is not an error — the journal torture
// harness kills the controller out from under us on purpose.
func runLoadgen(addr, token string, duration time.Duration, rate int) error {
	if rate <= 0 {
		rate = 2000
	}
	ctx, cancel := context.WithTimeout(context.Background(), duration+10*time.Second)
	defer cancel()
	ap1Pos, ap2Pos := testbed.AP1, testbed.AP2
	ag1, err := netproto.DialContext(ctx, addr, netproto.Hello{Name: "loadgen-ap1", Pos: ap1Pos, Token: token})
	if err != nil {
		return err
	}
	defer ag1.Close()
	ag2, err := netproto.DialContext(ctx, addr, netproto.Hello{Name: "loadgen-ap2", Pos: ap2Pos, Token: token})
	if err != nil {
		return err
	}
	defer ag2.Close()

	_, shell := testbed.Building()
	center := shell.Centroid()
	deadline := time.Now().Add(duration)
	tick := time.NewTicker(time.Second / time.Duration(rate))
	defer tick.Stop()
	var sent uint64
	for time.Now().Before(deadline) {
		<-tick.C
		sent++
		// Spread the high-order MAC bits so a partitioned controller
		// journals into every partition.
		mac := wifi.Addr{byte(sent * 0x9e), byte(sent >> 8), byte(sent >> 16), 0, 0, byte(sent)}
		target := geom.Point{
			X: center.X + float64(int(sent%17)-8),
			Y: center.Y + float64(int(sent%11)-5),
		}
		// One trace per synthetic transmission: both AP identities
		// report the same packet, so they share the ID (what a real
		// fleet converges to once every AP mints from the same packet).
		tr := trace.NextID()
		if err := ag1.Send(netproto.Report{APName: "loadgen-ap1", MAC: mac, SeqNo: sent, BearingDeg: geom.BearingDeg(ap1Pos, target), Trace: tr}); err != nil {
			fmt.Printf("loadgen: connection lost after %d reports: %v\n", sent, err)
			return nil
		}
		if err := ag2.Send(netproto.Report{APName: "loadgen-ap2", MAC: mac, SeqNo: sent, BearingDeg: geom.BearingDeg(ap2Pos, target), Trace: tr}); err != nil {
			fmt.Printf("loadgen: connection lost after %d reports: %v\n", sent, err)
			return nil
		}
		if sent%200 == 0 {
			if err := ag1.SendAlertDetail(netproto.Alert{
				APName: "loadgen-ap1", MAC: mac, Distance: 0.9, Threshold: 0.12,
				BearingDeg: geom.BearingDeg(ap1Pos, target), HasBearing: true, Stage: "spoofcheck",
				Trace: tr,
			}); err != nil {
				fmt.Printf("loadgen: connection lost after %d reports: %v\n", sent, err)
				return nil
			}
		}
	}
	fmt.Printf("loadgen: sent %d report pairs in %v\n", sent, duration)
	return nil
}

// runDemo wires two simulated APs to a controller over loopback TCP,
// pushes one inside client and one outside intruder through the fence,
// then closes the defense loop: a spoof alert from ap1 becomes a
// null-steer directive that ap2 applies with real beamforming weights.
func runDemo(seed int64) error {
	environment, shell := testbed.Building()
	fence := &locate.Fence{Boundary: shell}
	c := netproto.NewController(fence)
	// Escalate straight to null-steer on the first flagged packet, so
	// the demo shows the strongest countermeasure.
	c.DefensePolicy = defense.Policy{NullSteerScore: 2}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.Serve(ln)
	defer c.Close()
	sub := c.Subscribe(16)
	fmt.Printf("controller on %s\n", ln.Addr())

	apPos := []geom.Point{testbed.AP1, testbed.AP2}
	agents := make([]*netproto.Agent, len(apPos))
	bearingsFor := func(target geom.Point) []float64 {
		out := make([]float64, len(apPos))
		for i, p := range apPos {
			out[i] = geom.BearingDeg(p, target)
		}
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, pos := range apPos {
		name := fmt.Sprintf("ap%d", i+1)
		a, err := netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{Name: name, Pos: pos})
		if err != nil {
			return err
		}
		fmt.Printf("%s connected (protocol v%d)\n", name, netproto.ProtoVersion)
		defer a.Close()
		agents[i] = a
	}

	send := func(seq uint64, clientID int, target geom.Point, label string) error {
		tr := trace.NextID()
		fmt.Printf("transmission %d: %s at %v (trace %016x)\n", seq, label, target, tr)
		bs := bearingsFor(target)
		for i, a := range agents {
			if err := a.Send(netproto.Report{
				APName: fmt.Sprintf("ap%d", i+1), MAC: testbed.ClientMAC(clientID),
				SeqNo: seq, BearingDeg: bs[i], Trace: tr,
			}); err != nil {
				return err
			}
		}
		d := <-sub.C
		fmt.Printf("  -> %s (located %v)\n", d.Decision, d.Pos)
		return nil
	}

	five, err := testbed.ClientByID(5)
	if err != nil {
		return err
	}
	if err := send(1, 5, five.Pos, "client 5 (inside)"); err != nil {
		return err
	}
	if err := send(2, 99, testbed.OutsidePositions()[0], "intruder (outside)"); err != nil {
		return err
	}

	// The controller kept alpha-beta mobility tracks for both clients;
	// pull them over the wire with the Query/Tracks exchange.
	states, err := agents[0].QueryTracks(ctx, netproto.Query{All: true})
	if err != nil {
		return err
	}
	fmt.Println("live controller tracks:")
	for _, ts := range states {
		fmt.Printf("  %s at %v (fixes %d, fence %s)\n", ts.MAC, ts.Pos, ts.Fixes, ts.Decision)
	}

	// Close the loop: ap1 flags the intruder's MAC as spoofed; the
	// defense engine escalates and broadcasts a directive; ap2 — a real
	// pipeline AP with the paper's circular array — applies null-steer
	// weights toward the threat and acks the applied countermeasure.
	dirCh := agents[1].Directives()
	ap2 := core.NewAP("ap2", testbed.NewAPFrontEnd(testbed.CircularArray(), apPos[1], rng.New(seed+1)), environment, core.DefaultConfig())
	intruderMAC := testbed.ClientMAC(99)
	alertTrace := trace.NextID()
	fmt.Printf("\nap1 flags %s as spoofed (signature distance 0.9 vs threshold 0.12, trace %016x)\n", intruderMAC, alertTrace)
	if err := agents[0].SendAlertDetail(netproto.Alert{
		APName: "ap1", MAC: intruderMAC, Distance: 0.9, Threshold: 0.12,
		BearingDeg: bearingsFor(testbed.OutsidePositions()[0])[0], HasBearing: true, Stage: "spoofcheck",
		Trace: alertTrace,
	}); err != nil {
		return err
	}
	select {
	case d := <-dirCh:
		fmt.Printf("ap2 received directive: %s %s (score %.2f, reported by %s)\n", d.Action, d.MAC, d.Score, d.Reporter)
		cm, err := ap2.ApplyDirective(d.Directive)
		if err != nil {
			return err
		}
		if cm.Weights != nil {
			fmt.Printf("ap2 applied null-steer: %.1f dB toward threat bearing %.1f, %.1f dB toward serve bearing %.1f\n",
				beamform.GainDB(ap2.FE.Array, cm.Weights, cm.NullBearingDeg), cm.NullBearingDeg,
				beamform.GainDB(ap2.FE.Array, cm.Weights, cm.ServeBearingDeg), cm.ServeBearingDeg)
		}
		if err := agents[1].SendDirectiveAck(d.Directive); err != nil {
			return err
		}
	case <-ctx.Done():
		return ctx.Err()
	}

	// The threat table over the wire, then the operator release path.
	threats, err := agents[0].QueryThreats(ctx, netproto.Query{All: true})
	if err != nil {
		return err
	}
	fmt.Println("live threat states:")
	for _, st := range threats {
		fmt.Printf("  %s %s (action %s, score %.2f)\n", st.MAC, st.State, st.Action, st.Score)
	}
	c.Release(intruderMAC)
	fmt.Printf("operator released %s (quarantine also decays on its own after the policy TTL)\n", intruderMAC)
	return nil
}

// runJournalReplay re-runs a recorded incident offline under a
// (possibly counterfactual) DefensePolicy and prints the directive
// sequence the fleet would have seen — "what if QuarantineScore were
// lower?" answered from the journal instead of a production experiment.
func runJournalReplay(dir string, quarantineScore float64, halfLife, tail time.Duration) error {
	_, shell := testbed.Building()
	policy := defense.Policy{QuarantineScore: quarantineScore, HalfLife: halfLife}
	// Keep the policy self-consistent when the knob is pushed past the
	// dependent defaults in either direction: Validate requires
	// ReleaseScore < MonitorScore <= QuarantineScore <= NullSteerScore.
	if quarantineScore > defense.DefaultNullSteerScore {
		policy.NullSteerScore = quarantineScore
	}
	if quarantineScore > 0 && quarantineScore <= defense.DefaultMonitorScore {
		policy.MonitorScore = quarantineScore / 2
		policy.ReleaseScore = quarantineScore / 4
	}
	res, err := journal.Replay(dir, journal.ReplayOptions{
		Fence:  &locate.Fence{Boundary: shell},
		Policy: policy,
		Tail:   tail,
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d reports, %d alerts, %d releases -> %d fence decisions (through LSN %d)\n",
		res.Reports, res.Alerts, res.Releases, res.Decisions, res.LastLSN)
	fmt.Printf("recorded policy emitted %d directives; replayed policy emitted %d:\n",
		len(res.RecordedDirectives), len(res.Directives))
	for _, rd := range res.Directives {
		d := rd.Directive
		fmt.Printf("  %s  after LSN %-6d %s %s -> %s (action %s, score %.2f, by %s)\n",
			rd.TS.Format("15:04:05.000"), rd.AfterLSN, d.MAC, d.From, d.To, d.Action, d.Score, d.Reporter)
	}
	if len(res.Quarantined) > 0 {
		fmt.Println("still quarantined at end of replay:")
		for _, st := range res.Quarantined {
			fmt.Printf("  %s (score %.2f, since %s)\n", st.MAC, st.Score, st.Since.Format("15:04:05.000"))
		}
	}
	return nil
}

func runAll(seed int64, packets int) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig5", func() error { return runFig5(seed, packets) }},
		{"fig6", func() error { return runFig6(seed, false) }},
		{"fig7", func() error { return runFig7(seed, false) }},
		{"accuracy", func() error { return runAccuracy(seed, packets) }},
		{"fence", func() error { return runFence(seed) }},
		{"spoof", func() error { return runSpoof(seed, packets) }},
		{"ablation", func() error { return runAblation(seed) }},
		{"interference", func() error { return runInterference(seed) }},
		{"snr", func() error { return runSNR(seed, packets) }},
		{"track", func() error { return runTrack(seed) }},
		{"beamform", func() error { return runBeamform(seed) }},
	}
	for _, s := range steps {
		fmt.Printf("\n===== %s =====\n", s.name)
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
