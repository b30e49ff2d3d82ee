package main

import "fmt"

// endToEnd lists the metrics an untraced run reports, with units; every
// workload reports all of them. BENCHMARK.json declares the same list
// (metrics_test.go keeps the two in step).
var endToEnd = []struct{ name, unit string }{
	{"tx_per_s", "1/s"},
	{"decision_p50_ms", "ms"},
	{"decision_p90_ms", "ms"},
	{"directive_p50_ms", "ms"},
	{"directive_p90_ms", "ms"},
	{"cpu_us_per_tx", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"success_frac", "frac"},
}

// perLayer lists the metrics a traced run reports. A layer a workload
// does not exercise reads 0 (the AP layers on controller_ingest and
// spoof_storm, the threat query outside spoof_storm).
var perLayer = []struct{ name, unit string }{
	{"testbed.modulate_us", "us"},
	{"radio.receive_us", "us"},
	{"detect.find_us", "us"},
	{"music.covariance_us", "us"},
	{"cmat.eig_us", "us"},
	{"music.scan_us", "us"},
	{"music.bearing_us", "us"},
	{"core.estimate_us", "us"},
	{"core.estimate_gap_frac", "frac"},
	{"signature.match_us", "us"},
	{"core.apply_directive_us", "us"},
	{"core.errors_receive", "count"},
	{"core.errors_detect", "count"},
	{"core.errors_other", "count"},
	{"core.flagged_frac", "frac"},
	{"netproto.encode_us_per_report", "us"},
	{"netproto.decode_us_per_report", "us"},
	{"netproto.send_us", "us"},
	{"netproto.frames_per_tx", "count"},
	{"netproto.bytes_per_tx", "B"},
	{"netproto.directive_frames_per_alert", "count"},
	{"netproto.broadcast_queue_max", "count"},
	{"netproto.query_threats_ms", "ms"},
	{"partition.ingest_batch_us_per_report", "us"},
	{"fusion.decisions_per_tx", "count"},
	{"fusion.fuse_errors", "count"},
	{"fusion.forced_timeouts", "count"},
	{"fusion.dup_dropped", "count"},
	{"journal.append_batch_us_per_record", "us"},
	{"journal.append_us", "us"},
	{"journal.fsyncs_per_tx", "count"},
	{"journal.bytes_per_tx", "B"},
	{"defense.report_spoof_us", "us"},
	{"defense.sweep_us", "us"},
	{"defense.live_threats", "count"},
	{"defense.releases", "count"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.cpu_us_per_tx", "us"},
	{"trace.overhead_frac", "frac"},
	{"untraced.cpu_us_per_tx", "us"},
	{"untraced.decision_p99_ms", "ms"},
	{"untraced.directive_p99_ms", "ms"},
	{"layers.attributed_us_per_tx", "us"},
	{"layers.unattributed_us_per_tx", "us"},
	{"layers.ap_share", "frac"},
	{"layers.netproto_share", "frac"},
	{"layers.engine_share", "frac"},
	{"layers.defense_share", "frac"},
	{"layers.journal_share", "frac"},
	{"oracle.fence_truth_frac", "frac"},
	{"oracle.spoof_flag_frac", "frac"},
	{"oracle.benign_flag_frac", "frac"},
	{"failed_frac", "frac"},
}

// complete checks the run reported exactly the declared metric set for
// its mode, filling the per-layer metrics a workload does not exercise
// with 0.
func (b *bench) complete() error {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	known := map[string]bool{}
	for _, m := range want {
		known[m.name] = true
		got, ok := b.metrics[m.name]
		switch {
		case !ok:
			// A layer the workload does not exercise, or an under-sampled
			// percentile (already reported as a problem).
			b.set(m.name, 0, m.unit)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s reported in %s, declared %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range b.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
