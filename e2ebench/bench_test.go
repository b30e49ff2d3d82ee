package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/locate"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration
		ok   bool
	}{
		{1000, 0.99, 990 * time.Millisecond, true}, // 10 samples beyond
		{999, 0.99, 0, false},                      // 9 beyond
		{20, 0.50, 10 * time.Millisecond, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, err := percentile(durations(tc.n), tc.q)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%g) = %v, %v; want %v, ok=%v", tc.n, tc.q, got, err, tc.want, tc.ok)
		}
	}
}

// spread returns n latency samples of d, started evenly over span.
func spreadLat(n int, span, d time.Duration) []lat {
	base := time.Unix(1000, 0)
	out := make([]lat, n)
	for i := range out {
		out[i] = lat{base.Add(span * time.Duration(i) / time.Duration(n)), d}
	}
	return out
}

func TestReportLatencyRefusesUndersampledWindows(t *testing.T) {
	b := &bench{metrics: map[string]metric{}}
	b.reportLatency("decision", spreadLat(1000, 10*time.Second, time.Millisecond))
	if b.metrics["decision_p50_ms"].Value != 1 || b.metrics["decision_p90_ms"].Value != 1 || len(b.problems) != 0 {
		t.Errorf("200 samples per window: metrics %v, problems %v", b.metrics, b.problems)
	}
	b = &bench{metrics: map[string]metric{}}
	b.reportLatency("decision", spreadLat(150, 10*time.Second, time.Millisecond))
	if _, ok := b.metrics["decision_p90_ms"]; ok {
		t.Error("p90 of 30-sample windows reported")
	}
	if len(b.problems) != 1 {
		t.Errorf("problems = %v, want one for the under-sampled p90", b.problems)
	}
}

func TestWindowedPercentileIgnoresStalledWindows(t *testing.T) {
	samples := spreadLat(2000, 20*time.Second, time.Millisecond)
	for i := 0; i < 1200; i++ {
		samples[i].d = 50 * time.Millisecond // six of ten windows stall throughout
	}
	if got, err := windowedPercentile(samples, 0.9); err != nil || got != time.Millisecond {
		t.Errorf("windowed p90 = %v, %v; want 1ms", got, err)
	}
	for i := range samples {
		samples[i].d = 2 * time.Millisecond // a slower program: every window
	}
	if got, err := windowedPercentile(samples, 0.9); err != nil || got != 2*time.Millisecond {
		t.Errorf("windowed p90 of a uniformly slower run = %v, %v; want 2ms", got, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3.2, 1.5, 2.8, 4.1, 2.2, 3.9, 1.1}, [3]float64{1.5, 2.8, 3.9}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestJudgeAppliesSandboxRule(t *testing.T) {
	lower := specMetric{Name: "latency", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8.2, 8, 7.8, 8.1, 8, 8.2, 7.9}
	if _, _, v := judge(parent, faster, lower); v != "better" {
		t.Errorf("clearly faster change judged %s", v)
	}
	slower := []float64{12, 12.1, 11.9, 12.2, 12, 11.8, 12.1, 12, 12.2, 11.9}
	if _, _, v := judge(parent, slower, lower); v != "worse" {
		t.Errorf("20%% slower change judged %s", v)
	}
	if _, _, v := judge(parent, parent, lower); v != "same" {
		t.Errorf("identical runs judged %s", v)
	}
	noisy := []float64{5, 15, 7, 13, 10, 4, 16, 9, 11, 10}
	if _, _, v := judge(noisy, parent, lower); v != "unresolved" {
		t.Errorf("change against a parent wider than the bound judged %s", v)
	}
}

// runs builds one workload's runs for the comparator: one run per value,
// each failing the given number of operations.
func runs(w string, latency []float64, failed []int) []runLine {
	out := make([]runLine, len(latency))
	for i, v := range latency {
		out[i] = runLine{Workload: w, Seed: int64(i), Result: result{
			Correct: true, Attempted: 1000, Failed: failed[i],
			Metrics: map[string]metric{"latency": {Value: v, Unit: "ms"}},
		}}
	}
	return out
}

func TestCompareJudgesAnyRiseInFailuresWorse(t *testing.T) {
	spec := []specMetric{{Name: "latency", Better: "lower", Bound: 0.1}}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8.2, 8, 7.8, 8.1, 8, 8.2, 7.9}
	none := make([]int, 10)
	one := make([]int, 10)
	one[4] = 1 // a single extra failed operation in one run
	verdicts := func(change []int) map[string]string {
		m := map[string]string{}
		for _, r := range compareRuns(spec, [][]runLine{runs("w", parent, none), runs("w", faster, change)}) {
			m[r.metric] = r.verdict
		}
		return m
	}
	if v := verdicts(none); v["latency"] != "better" || v["failed"] != "same" {
		t.Errorf("faster change, no failures: %v", v)
	}
	if v := verdicts(one); v["failed"] != "worse" {
		t.Errorf("faster change with one more failure: %v, want failed worse", v)
	}
	for _, r := range compareRuns(spec, [][]runLine{runs("w", parent, none)}) {
		if r.metric == "failed" {
			t.Error("a single set has a failed row")
		}
	}
}

func TestCompareRefusesIncorrectRuns(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	line := func(correct bool) string {
		r := runLine{Workload: "w", Seed: 1, Result: result{Correct: correct, Attempted: 10, Metrics: map[string]metric{}}}
		b, _ := json.Marshal(r)
		return string(b) + "\n"
	}
	if err := os.WriteFile(path, []byte(line(true)+line(true)), 0o644); err != nil {
		t.Fatal(err)
	}
	if rs, err := readRuns(path); err != nil || len(rs) != 2 {
		t.Fatalf("correct runs: %d read, %v", len(rs), err)
	}
	if err := os.WriteFile(path, []byte(line(true)+line(false)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRuns(path); err == nil {
		t.Error("a run with correct=false was accepted")
	}
}

// TestOpenLoopStallShowsInLatency stalls one send and checks the items
// behind it carry the stall in their due-time latency, though each was
// itself sent without delay.
func TestOpenLoopStallShowsInLatency(t *testing.T) {
	const every, stall = 2 * time.Millisecond, 30 * time.Millisecond
	ol := openLoop{start: time.Now(), every: every}
	done := make([]time.Time, 6)
	for k := range done {
		ol.wait(k)
		if k == 2 {
			time.Sleep(stall) // a stalled consumer
		}
		done[k] = time.Now()
	}
	if lat := done[3].Sub(ol.due(3)); lat < stall-2*every {
		t.Errorf("item after the stall: due-time latency %v, want >= %v", lat, stall-2*every)
	}
	if ol.late < stall-2*every {
		t.Errorf("generator lateness %v, want >= %v", ol.late, stall-2*every)
	}
}

// ingestFixture is a four-transmission controller_ingest world: three
// inside addresses and one outside (transmission 2, directive slot 0).
func ingestFixture() *ingestWorld {
	w := &ingestWorld{
		targets: []ingestTarget{
			{mac: wifi.Addr{1}, inside: true}, {mac: wifi.Addr{2}, inside: true},
			{mac: wifi.Addr{4}, inside: true}, {mac: wifi.Addr{3}, inside: false},
		},
		nInside:   3,
		txMAC:     []int32{0, 1, 3, 2},
		decisions: newArrivals(4),
		dirArr:    [2]*arrivals{newArrivals(1), newArrivals(1)},
		dirMACs:   map[wifi.Addr]bool{},
	}
	now := time.Now()
	for tx, d := range []locate.Decision{locate.Allow, locate.Allow, locate.Drop, locate.Allow} {
		w.decisions.note(tx, now, int(d))
	}
	for _, a := range w.dirArr {
		a.note(0, now, int(defense.ActionQuarantine))
	}
	w.dirMACs[wifi.Addr{3}] = true
	return w
}

func TestOracleCountsFailures(t *testing.T) {
	check := func(w *ingestWorld) *bench {
		b := &bench{metrics: map[string]metric{}}
		w.check(b, 4)
		return b
	}
	if b := check(ingestFixture()); b.failed != 0 || b.attempted != 6 || len(b.problems) != 0 {
		t.Fatalf("clean run: attempted %d failed %d problems %v", b.attempted, b.failed, b.problems)
	}

	w := ingestFixture()
	w.decisions.at[1] = 0 // a decision dropped at the subscriber
	if b := check(w); b.failed != 1 {
		t.Errorf("dropped decision: failed = %d, want 1", b.failed)
	}

	w = ingestFixture()
	w.dirArr[1].at[0] = 0 // a directive withheld from one agent
	if b := check(w); b.failed != 1 {
		t.Errorf("withheld directive: failed = %d, want 1", b.failed)
	}

	w = ingestFixture()
	w.decisions.v[0] = int32(locate.Drop) // wrong fence decision
	w.dirMACs[wifi.Addr{1}] = true        // benign address quarantined
	if b := check(w); len(b.problems) != 2 {
		t.Errorf("wrong decision + benign quarantine: problems = %v, want 2", b.problems)
	}
}

func TestDirectiveMismatches(t *testing.T) {
	q := func(mac byte, a defense.Action, from, to defense.State) defense.Directive {
		return defense.Directive{MAC: wifi.Addr{mac}, Action: a, From: from, To: to}
	}
	quar := q(1, defense.ActionQuarantine, defense.StateAllow, defense.StateQuarantine)
	rel := q(1, defense.ActionAllow, defense.StateQuarantine, defense.StateAllow)
	other := q(2, defense.ActionNullSteer, defense.StateAllow, defense.StateQuarantine)
	for _, tc := range []struct {
		name               string
		recorded, replayed []defense.Directive
		want               int
	}{
		{"identical", []defense.Directive{quar, rel, other}, []defense.Directive{quar, other, rel}, 0},
		{"trailing release", []defense.Directive{quar}, []defense.Directive{quar, rel}, 0},
		{"missing quarantine", []defense.Directive{quar, other}, []defense.Directive{quar}, 1},
		{"different action", []defense.Directive{other}, []defense.Directive{q(2, defense.ActionQuarantine, defense.StateAllow, defense.StateQuarantine)}, 1},
	} {
		if got := directiveMismatches(tc.recorded, tc.replayed); got != tc.want {
			t.Errorf("%s: %d mismatches, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	clients := testbed.Clients()[:5]
	a, b, c := genPhyInputs(7, clients, 200), genPhyInputs(7, clients, 200), genPhyInputs(8, clients, 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("phy inputs differ for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("phy inputs identical across seeds")
	}
	seen := map[string]bool{}
	for _, tx := range a {
		f := tx.item.Frame
		key := string(f.AppendMarshal(nil))
		if seen[key] {
			t.Fatal("two transmissions share frame bytes: modulation would hit the cache")
		}
		seen[key] = true
	}

	gen := func(seed int64) []ingestTarget {
		r := rand.New(rand.NewPCG(uint64(seed), 1))
		return genIngestTargets(r, map[wifi.Addr]bool{}, 50, seed%2 == 0)
	}
	if !reflect.DeepEqual(gen(4), gen(4)) || reflect.DeepEqual(gen(4), gen(6)) {
		t.Error("ingest targets not a function of the seed")
	}
	if !reflect.DeepEqual(genStormAlerts(3, 50), genStormAlerts(3, 50)) || reflect.DeepEqual(genStormAlerts(3, 50), genStormAlerts(4, 50)) {
		t.Error("storm alerts not a function of the seed")
	}
	for i := 0; i < 1000; i += 37 {
		if got, ok := txOfTrace(9, txTrace(9, i)); !ok || got != i {
			t.Fatalf("txOfTrace(txTrace(%d)) = %d, %v", i, got, ok)
		}
	}
	if _, ok := txOfTrace(9, txTrace(10, 3)); ok {
		t.Error("another seed's trace mapped to a transmission")
	}
}

// TestMetricsMatchDeclaration keeps BENCHMARK.json and the metric lists
// the runs report in step.
func TestMetricsMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decl []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(decl) != len(code) {
			t.Errorf("%s: %d declared, %d reported", what, len(decl), len(code))
			return
		}
		for i := range decl {
			if decl[i].Name != code[i].name || decl[i].Unit != code[i].unit {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", what, i, decl[i].Name, decl[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not defined", w.Name)
		}
	}
}
