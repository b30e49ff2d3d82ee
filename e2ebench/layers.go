package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/core"
	"secureangle/internal/defense"
	"secureangle/internal/detect"
	"secureangle/internal/dsp"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/music"
	"secureangle/internal/netproto"
	"secureangle/internal/partition"
	"secureangle/internal/pool"
	"secureangle/internal/radio"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

// The traced run's per-layer breakdown. Spans are taken from the
// benchmark's own code around each layer's public entry point: on the
// AP side inline during the traced phase (every phySampleEvery-th frame
// replayed on a shadow AP), on the controller side by replaying the
// traced phase's generated inputs, in order, through each engine —
// those layers run inside Controller, where the benchmark cannot wrap
// them.

// acc accumulates one layer's busy time over n units of work.
type acc struct {
	total time.Duration
	n     int
}

func (a *acc) add(d time.Duration)         { a.total += d; a.n++ }
func (a *acc) addN(d time.Duration, n int) { a.total += d; a.n += n }

// us is the mean busy time per unit, in microseconds.
func (a acc) us() float64 { return perTx(a.total, a.n) }

func (a *acc) merge(o acc) { a.total += o.total; a.n += o.n }

// apLayers are one AP's traced-phase timings: per frame for the
// pipeline stages, per directive for the countermeasure.
type apLayers struct {
	modulate, receive, estimate, match acc
	find, cov, eig, scan, bearing      acc
	apply                              acc

	// The decomposition's working set, reused across frames as core's
	// pooled per-packet scratch is.
	mf      *antenna.Manifold
	arr     *antenna.Array
	grid    []float64
	offsets []float64
	arena   *pool.Arena
	covM    cmat.Matrix
	eigWS   cmat.EigWorkspace
	dets    []detect.Detection
}

func (l *apLayers) init(shadow *core.AP) {
	l.arr = shadow.FE.Array
	l.grid = shadow.Grid()
	l.mf = antenna.NewManifold(l.arr, l.grid)
	l.offsets = shadow.Offsets()
	l.arena = pool.NewArena(1<<14, 1<<12, 4*l.arr.N())
}

func (l *apLayers) merge(o *apLayers) {
	for _, p := range []struct{ dst, src *acc }{
		{&l.modulate, &o.modulate}, {&l.receive, &o.receive}, {&l.estimate, &o.estimate},
		{&l.match, &o.match}, {&l.find, &o.find}, {&l.cov, &o.cov}, {&l.eig, &o.eig},
		{&l.scan, &o.scan}, {&l.bearing, &o.bearing}, {&l.apply, &o.apply},
	} {
		p.dst.merge(*p.src)
	}
}

// sample replays one workload frame through the AP layers' entry points
// on the shadow AP: modulation (a frame never modulated before, so the
// baseband cache misses), channel synthesis, the whole estimation pass,
// the same pass split stage by stage, and the signature match against
// the live AP's stored signature for the frame's address.
func (l *apLayers) sample(shadow, live *core.AP, item core.FrameBatchItem) {
	f := *item.Frame
	f.Payload = append([]byte(nil), f.Payload...)
	f.Payload[8] = 2
	t0 := time.Now()
	bb, err := testbed.FrameBaseband(&f, item.Mod)
	l.modulate.add(time.Since(t0))
	if err != nil {
		return
	}
	t0 = time.Now()
	streams, err := shadow.Receive(item.TX, bb)
	l.receive.add(time.Since(t0))
	if err != nil {
		return // blocked: the live path counted the failure
	}
	cp := make([][]complex128, len(streams))
	for i, s := range streams {
		cp[i] = append([]complex128(nil), s...)
	}
	t0 = time.Now()
	rep, err := shadow.ProcessStreams(streams)
	est := time.Since(t0)
	if err != nil {
		return
	}
	if !l.decompose(cp) {
		return
	}
	l.estimate.add(est)
	if stored, ok := live.StoredSignature(item.Frame.Addr2); ok {
		t0 = time.Now()
		// Both signatures come from this AP's grid, so Distance cannot
		// fail on a grid mismatch; only its time matters here.
		_, _ = signature.Distance(stored, rep.Sig)
		l.match.add(time.Since(t0))
	}
}

// decompose runs the estimation pass stage by stage through the same
// public entry points core's per-packet path calls (arena detection,
// in-place covariance, workspace eigensolver, manifold scan), and
// records the stages only when the whole pass succeeds, so their sum
// compares like with like against core.estimate_us.
func (l *apLayers) decompose(streams [][]complex128) bool {
	defer l.arena.Reset()
	var d [5]time.Duration
	t0 := time.Now()
	radio.ApplyCalibration(streams, l.offsets)
	l.dets = detect.FindArena(streams[0], detect.DefaultConfig(), l.arena, l.dets[:0])
	if len(l.dets) == 0 {
		return false
	}
	det := l.dets[0]
	n := packetExtent(streams[0], det.Start)
	win, ok := detect.ExtractAlignedArena(streams, det, n, l.arena)
	if !ok || n < len(streams) {
		return false
	}
	t1 := time.Now()
	d[0] = t1.Sub(t0)
	r, err := music.CovarianceInto(&l.covM, win)
	if err != nil {
		return false
	}
	t2 := time.Now()
	d[1] = t2.Sub(t1)
	eig, err := l.eigWS.HermEig(r)
	if err != nil {
		return false
	}
	t3 := time.Now()
	d[2] = t3.Sub(t2)
	ps := &music.Pseudospectrum{AnglesDeg: l.grid, P: make([]float64, len(l.grid))}
	if _, err := (&music.MUSIC{}).PseudospectrumFromEigInto(ps, eig, l.mf, n); err != nil {
		return false
	}
	_ = signature.FromPseudospectrum(ps)
	t4 := time.Now()
	d[3] = t4.Sub(t3)
	// Bearing selection on the circular array: the strongest MUSIC peaks
	// re-ranked by Bartlett power (root-MUSIC serves linear arrays only).
	if peaks := ps.Peaks(8, 12); len(peaks) > 1 {
		grid := make([]float64, len(peaks))
		for i, p := range peaks {
			grid[i] = p.BearingDeg
		}
		if _, err := (music.Bartlett{}).Pseudospectrum(r, l.arr, grid); err != nil {
			return false
		}
	}
	d[4] = time.Since(t4)
	for i, a := range []*acc{&l.find, &l.cov, &l.eig, &l.scan, &l.bearing} {
		a.add(d[i])
	}
	return true
}

// packetExtent mirrors core's packet-length estimate: from the detected
// start to where smoothed power falls 13 dB below the packet head.
func packetExtent(x []complex128, start int) int {
	const win = 80 // one OFDM symbol
	if start >= len(x) {
		return 0
	}
	rest := x[start:]
	if len(rest) <= win {
		return len(rest)
	}
	pow := make([]float64, len(rest))
	for i, v := range rest {
		pow[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	sm := dsp.MovingSumRealInto(make([]float64, len(rest)-win+1), pow, win)
	ref := 0.0
	for i := 0; i < len(sm) && i < 400; i++ {
		ref = max(ref, sm[i])
	}
	if ref == 0 {
		return len(rest)
	}
	end := len(sm)
	for i := 160; i < len(sm); i++ {
		if sm[i] < ref/20 {
			end = i
			break
		}
	}
	return min(end+win, len(rest))
}

// wireLoad is what a traced phase sent the controller, in order.
type wireLoad struct {
	batches [][]netproto.Report
	alerts  []netproto.Alert
	due     []time.Time // each alert's hand-off or due time
}

// ctrlLayers are the controller-side replay timings.
type ctrlLayers struct {
	encode, decode acc // per report (MarshalReportBatch / Unmarshal)
	alertDecode    acc // per alert frame
	ingest         acc // per report (partition.Set.IngestBatch with a defense sink)
	appendBatch    acc // per record (interval fsync, group commit)
	appendAlways   acc // per record (FsyncAlways, one record per append)
	appendNoSync   acc // per record (FsyncNever, one record per append)
	reportSpoof    acc // per alert
	sweep          acc // per defense sweep
}

// replayControllerLayers replays load through the wire codec, a fresh
// partition set, fresh journals (both fsync policies) and a fresh
// defense engine.
func replayControllerLayers(dir string, load wireLoad, parts int, policy defense.Policy) (*ctrlLayers, error) {
	l := &ctrlLayers{}
	apPos := map[string]geom.Point{"AP1": testbed.AP1, "AP2": testbed.AP2}
	for _, rs := range load.batches {
		if len(rs) == 0 {
			continue
		}
		t0 := time.Now()
		body := netproto.MarshalReportBatch(rs)
		t1 := time.Now()
		if _, err := netproto.Unmarshal(body); err != nil {
			return nil, fmt.Errorf("decode replay: %w", err)
		}
		l.encode.addN(t1.Sub(t0), len(rs))
		l.decode.addN(time.Since(t1), len(rs))
	}
	for _, a := range load.alerts {
		body := netproto.MarshalAlert(a)
		t0 := time.Now()
		if _, err := netproto.Unmarshal(body); err != nil {
			return nil, fmt.Errorf("alert decode replay: %w", err)
		}
		l.alertDecode.add(time.Since(t0))
	}

	fence := buildingFence()
	set, err := partition.New(parts,
		func(int) fusion.Config {
			return fusion.Config{Fence: fence, APCount: func() int { return len(apPos) }}
		},
		func(int) defense.Config { return defense.Config{Policy: policy} })
	if err != nil {
		return nil, err
	}
	var bs []fusion.Bearing
	for _, rs := range load.batches {
		bs = bs[:0]
		for _, r := range rs {
			bs = append(bs, fusion.Bearing{AP: r.APName, APPos: apPos[r.APName], MAC: r.MAC, Seq: r.SeqNo, Deg: r.BearingDeg, Trace: r.Trace})
		}
		t0 := time.Now()
		set.IngestBatch(bs, func(_ int, d fusion.Decision, ts fusion.TrackState, tracked bool) {
			set.ReportFence(defense.FenceVerdict{MAC: d.MAC, Seq: d.Seq, Pos: d.Pos, Allowed: d.Decision == locate.Allow, Forced: d.Forced, Trace: d.Trace})
			if tracked {
				set.ReportTrack(defense.TrackVerdict{MAC: d.MAC, Pos: ts.Pos, Vel: ts.Vel, Trace: d.Trace})
			}
		})
		l.ingest.addN(time.Since(t0), len(bs))
	}
	set.Close()

	if err := replayJournal(filepath.Join(dir, "replay-interval"), load, apPos, l); err != nil {
		return nil, err
	}
	if err := replayJournalSingle(filepath.Join(dir, "replay-single"), load, l); err != nil {
		return nil, err
	}
	replayDefense(load, policy, l)
	return l, nil
}

// replayJournal group-commits the load's report records into a fresh
// interval-fsync journal, one AppendBatch per ReportBatch frame.
func replayJournal(dir string, load wireLoad, apPos map[string]geom.Point, l *ctrlLayers) error {
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var enc []byte
	var offs []int
	var recs []journal.Record
	for _, rs := range load.batches {
		if len(rs) == 0 {
			continue
		}
		enc, offs, recs = enc[:0], offs[:0], recs[:0]
		for _, r := range rs {
			enc = journal.AppendReport(enc, journal.ReportEvent{AP: r.APName, APPos: apPos[r.APName], MAC: r.MAC, Seq: r.SeqNo, BearingDeg: r.BearingDeg, Trace: r.Trace})
			offs = append(offs, len(enc))
		}
		prev := 0
		for _, off := range offs {
			recs = append(recs, journal.Record{Type: journal.RecReport, Data: enc[prev:off:off]})
			prev = off
		}
		t0 := time.Now()
		if _, err := j.AppendBatch(recs); err != nil {
			j.Close()
			return err
		}
		l.appendBatch.addN(time.Since(t0), len(recs))
	}
	return j.Close()
}

// replayAlwaysMax bounds the single-record replays: each durable append
// waits for an fsync, so a sample suffices.
const replayAlwaysMax = 400

// replayJournalSingle appends alert records one at a time to a fresh
// FsyncAlways journal — the durable single-record path — and to a fresh
// FsyncNever journal, the path the benchmark's live journals take.
func replayJournalSingle(dir string, load wireLoad, l *ctrlLayers) error {
	for _, p := range []struct {
		fsync journal.FsyncPolicy
		into  *acc
	}{{journal.FsyncAlways, &l.appendAlways}, {journal.FsyncNever, &l.appendNoSync}} {
		j, err := journal.Open(filepath.Join(dir, p.fsync.String()), journal.Options{Fsync: p.fsync})
		if err != nil {
			return err
		}
		for i, a := range load.alerts {
			if i == replayAlwaysMax {
				break
			}
			data := journal.EncodeAlert(spoofVerdict(a))
			t0 := time.Now()
			if _, err := j.Append(journal.Record{Type: journal.RecAlert, Data: data}); err != nil {
				j.Close()
				return err
			}
			p.into.add(time.Since(t0))
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// defenseTick is the defense engine's default sweep period.
const defenseTick = 50 * time.Millisecond

// replayDefense feeds the load's alerts to a fresh defense engine on a
// clock that follows their hand-off times, sweeping every defenseTick of
// that clock — so each Sweep runs at the threat-table size the live
// engine had.
func replayDefense(load wireLoad, policy defense.Policy, l *ctrlLayers) {
	if len(load.alerts) == 0 {
		return
	}
	now := load.due[0]
	eng := defense.MustNew(defense.Config{Policy: policy, Clock: func() time.Time { return now }, TickInterval: time.Hour})
	defer eng.Close()
	next := now.Add(defenseTick)
	for i, a := range load.alerts {
		now = load.due[i]
		for !now.Before(next) {
			t0 := time.Now()
			eng.Sweep(next)
			l.sweep.add(time.Since(t0))
			next = next.Add(defenseTick)
		}
		v := spoofVerdict(a)
		t0 := time.Now()
		eng.ReportSpoof(v)
		l.reportSpoof.add(time.Since(t0))
	}
}

// spoofVerdict is the defense engine's view of an alert (what the
// controller's alert handler builds).
func spoofVerdict(a netproto.Alert) defense.SpoofVerdict {
	return defense.SpoofVerdict{
		AP: a.APName, MAC: a.MAC, Flagged: true, Distance: a.Distance, Threshold: a.Threshold,
		BearingDeg: a.BearingDeg, HasBearing: a.HasBearing, Stage: a.Stage, Trace: a.Trace,
	}
}

// phaseCounts is what a traced phase did, for turning per-unit layer
// times into per-transmission shares.
type phaseCounts struct {
	tx           int           // transmissions completed
	elapsed      time.Duration // phase wall time
	cpu          time.Duration // process CPU during the phase
	untracedCPU  float64       // cpu_us_per_tx of the untraced phase
	reports      int           // reports sent
	sends        int           // agent send calls
	sendT        time.Duration // time inside agent send calls
	alerts       int
	dirFrames    int     // directive + legacy alert frames the agents received
	apFrames     int     // frames processed by AP pipelines
	apUSPerFrame float64 // AP layer time per processed frame
	applyUS      float64 // countermeasure time per directive
	directives   int     // directives applied
	stats0       netproto.ControllerStats
	stats1       netproto.ControllerStats
	jr0, jr1     journal.Stats
	wire         wireCount
	queueMax     int
	queryMS      float64
	liveThreats  int // live threat-table size at the end of the phase
	lateMax      time.Duration
	genCPU       time.Duration
}

// reportBreakdown sets the per-layer metrics every workload shares: the
// wire, controller-engine and journal layers from the replay, the
// counters from the live controller, and the attribution of the
// untraced cpu_us_per_tx across layer groups.
func reportBreakdown(b *bench, c phaseCounts, l *ctrlLayers) {
	tx := float64(c.tx)
	b.set("netproto.encode_us_per_report", l.encode.us(), "us")
	b.set("netproto.decode_us_per_report", l.decode.us(), "us")
	b.set("netproto.send_us", perTx(c.sendT, c.sends), "us")
	b.set("netproto.frames_per_tx", ratio(float64(c.wire.frames), tx), "count")
	b.set("netproto.bytes_per_tx", ratio(float64(c.wire.bytes), tx), "B")
	b.set("netproto.directive_frames_per_alert", ratio(float64(c.dirFrames), float64(c.alerts)), "count")
	b.set("netproto.broadcast_queue_max", float64(c.queueMax), "count")
	b.set("netproto.query_threats_ms", c.queryMS, "ms")

	b.set("partition.ingest_batch_us_per_report", l.ingest.us(), "us")
	attempts := float64(c.tx)
	b.set("fusion.decisions_per_tx", ratio(float64(c.stats1.Decisions-c.stats0.Decisions), attempts), "count")
	b.set("fusion.fuse_errors", float64(c.stats1.FuseErrors-c.stats0.FuseErrors), "count")
	b.set("fusion.forced_timeouts", float64(c.stats1.ForcedTimeouts-c.stats0.ForcedTimeouts), "count")
	b.set("fusion.dup_dropped", float64(c.stats1.DupDropped-c.stats0.DupDropped), "count")

	records := float64(c.jr1.Appends - c.jr0.Appends)
	b.set("journal.append_batch_us_per_record", l.appendBatch.us(), "us")
	b.set("journal.append_us", l.appendAlways.us(), "us")
	b.set("journal.fsyncs_per_tx", ratio(float64(c.jr1.Fsyncs-c.jr0.Fsyncs), tx), "count")
	b.set("journal.bytes_per_tx", ratio(float64(c.jr1.AppendedBytes-c.jr0.AppendedBytes), tx), "B")

	b.set("defense.report_spoof_us", l.reportSpoof.us(), "us")
	b.set("defense.sweep_us", l.sweep.us(), "us")
	b.set("defense.live_threats", float64(c.liveThreats), "count")
	b.set("defense.releases", float64(c.stats1.Defense.Releases-c.stats0.Defense.Releases), "count")

	b.set("loadgen.late_max_ms", ms(c.lateMax), "ms")
	b.set("loadgen.cpu_us_per_tx", perTx(c.genCPU, c.tx), "us")
	traced := perTx(c.cpu, c.tx)
	b.set("trace.overhead_frac", ratio(traced, c.untracedCPU)-1, "frac")

	// Attribution of the untraced CPU per transmission. Each group is a
	// layer's measured time per unit times the units per transmission.
	// Every live journal here buffers its appends (no fsync): a record
	// costs what a group-committed one does, or an unsynced single append
	// where the workload sends no report batches.
	sweeps := c.elapsed.Seconds() / defenseTick.Seconds()
	journalPer := l.appendBatch.us() // group-committed report records
	if l.appendBatch.n == 0 {
		journalPer = l.appendNoSync.us() // single records only
	}
	groups := []struct {
		name string
		us   float64
	}{
		{"ap", float64(c.apFrames)*c.apUSPerFrame/tx + float64(c.directives)*c.applyUS/tx},
		{"netproto", us(c.sendT)/tx + float64(c.reports)*l.decode.us()/tx + float64(c.alerts)*l.alertDecode.us()/tx},
		{"engine", float64(c.reports) * l.ingest.us() / tx},
		{"defense", float64(c.alerts)*l.reportSpoof.us()/tx + sweeps*l.sweep.us()/tx},
		{"journal", records * journalPer / tx},
	}
	var sum float64
	for _, g := range groups {
		sum += g.us
	}
	for _, g := range groups {
		b.set("layers."+g.name+"_share", ratio(g.us, sum), "frac")
	}
	b.set("untraced.cpu_us_per_tx", c.untracedCPU, "us")
	b.set("layers.attributed_us_per_tx", sum, "us")
	b.set("layers.unattributed_us_per_tx", c.untracedCPU-sum, "us")
}

// estimateGapTolerance is how far the stage-by-stage decomposition may
// sum from the whole estimation pass it splits up.
const estimateGapTolerance = 0.25

// reportAPLayers sets the AP-side per-layer metrics (zero on workloads
// with no PHY work).
func reportAPLayers(b *bench, l *apLayers, errs map[string]int, flagged, processed int) {
	b.set("testbed.modulate_us", l.modulate.us(), "us")
	b.set("radio.receive_us", l.receive.us(), "us")
	b.set("detect.find_us", l.find.us(), "us")
	b.set("music.covariance_us", l.cov.us(), "us")
	b.set("cmat.eig_us", l.eig.us(), "us")
	b.set("music.scan_us", l.scan.us(), "us")
	b.set("music.bearing_us", l.bearing.us(), "us")
	b.set("core.estimate_us", l.estimate.us(), "us")
	stages := l.find.us() + l.cov.us() + l.eig.us() + l.scan.us() + l.bearing.us()
	gap := 0.0
	if e := l.estimate.us(); e > 0 {
		gap = (stages - e) / e
		if math.Abs(gap) > estimateGapTolerance {
			b.problem("AP stage times sum to %.1f us against %.1f us for core.estimate (tolerance %.0f%%)", stages, e, 100*estimateGapTolerance)
		}
	}
	b.set("core.estimate_gap_frac", gap, "frac")
	b.set("signature.match_us", l.match.us(), "us")
	b.set("core.apply_directive_us", l.apply.us(), "us")
	b.set("core.errors_receive", float64(errs[core.StageReceive]), "count")
	b.set("core.errors_detect", float64(errs[core.StageDetect]), "count")
	other := 0
	for st, n := range errs {
		if st != core.StageReceive && st != core.StageDetect {
			other += n
		}
	}
	b.set("core.errors_other", float64(other), "count")
	b.set("core.flagged_frac", ratio(float64(flagged), float64(processed)), "frac")
}
