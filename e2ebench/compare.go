package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// The comparator: the in-repo stand-in for benchstat. Given one set of
// runs it reports each workload's and metric's median, quartiles and
// spread against the metric's bound (is the benchmark steady?); given
// two sets — a parent and a change, run alternately with the same
// settings — it applies the small-sandbox rule: a change is better only
// if it wins at least nine tenths of the run pairs and its median moved
// by more than the parent's own quartile spread; worse if its median
// moved the wrong way by more than the bound; unresolved where the
// parent's spread already exceeds the bound. A gain does not count when
// more operations fail than at the parent: each workload gets a `failed`
// row, worse on any rise in the failed count, and a run that failed its
// correctness check is refused outright.
//
// setup_s is graded on its median alone, as the acceptance rule for the
// benchmark does: its spread never makes a set unsteady (it reads "info"
// beyond its bound) or a comparison unresolved. A world that builds in
// under a millisecond (spoof_storm) has a spread near its bound.

// specMetric is one end-to-end metric's declaration in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runLine is one line of a runs file: a workload's result line, as
// printed by the benchmark, tagged with the workload and seed.
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

func compareMain(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: compare runs.jsonl [change.jsonl] (from the repository root, beside BENCHMARK.json)")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [][]runLine
	for _, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			return err
		}
		sets = append(sets, runs)
	}
	rows := compareRuns(spec, sets)
	printRows(os.Stdout, rows, len(sets) == 2)
	for _, r := range rows {
		if r.verdict == "unsteady" || r.verdict == "worse" {
			return fmt.Errorf("%s %s is %s", r.workload, r.metric, r.verdict)
		}
	}
	return nil
}

func readSpec(path string) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

func readRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its correctness check; an incorrect run is not compared", path, r.Workload, r.Seed)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// row is one workload and metric of a comparison.
type row struct {
	workload, metric string
	bound            float64
	a, b             []float64 // b empty for a single set
	wins, pairs      int       // pairs the change won (two sets)
	verdict          string
}

// compareRuns builds one row per workload and declared metric, and with
// two sets a `failed` row per workload.
func compareRuns(spec []specMetric, sets [][]runLine) []row {
	var workloads []string
	seen := map[string]bool{}
	for _, r := range sets[0] {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	values := func(runs []runLine, w, m string) []float64 {
		var out []float64
		for _, r := range runs {
			if v, ok := r.Result.Metrics[m]; ok && r.Workload == w {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []row
	for _, w := range workloads {
		for _, m := range spec {
			r := row{workload: w, metric: m.Name, bound: m.Bound, a: values(sets[0], w, m.Name)}
			if len(r.a) == 0 {
				continue
			}
			if len(sets) == 1 {
				r.verdict = steadiness(r.a, m)
			} else {
				r.b = values(sets[1], w, m.Name)
				r.wins, r.pairs, r.verdict = judge(r.a, r.b, m)
			}
			rows = append(rows, r)
		}
		if len(sets) == 2 {
			rows = append(rows, failedRow(w, sets[0], sets[1]))
		}
	}
	return rows
}

// failedRow compares the operations that failed on workload w: worse when
// the change's runs failed more of them in total than the parent's.
func failedRow(w string, parent, change []runLine) row {
	counts := func(runs []runLine) (xs []float64, total int) {
		for _, r := range runs {
			if r.Workload == w {
				xs = append(xs, float64(r.Result.Failed))
				total += r.Result.Failed
			}
		}
		return xs, total
	}
	r := row{workload: w, metric: "failed", verdict: "same"}
	var ta, tb int
	r.a, ta = counts(parent)
	r.b, tb = counts(change)
	r.pairs = min(len(r.a), len(r.b))
	for i := 0; i < r.pairs; i++ {
		if r.b[i] < r.a[i] {
			r.wins++
		}
	}
	if tb > ta {
		r.verdict = "worse"
	}
	return r
}

// steadiness grades one set's spread against the metric's bound: "ok"
// within a third of it, "wide" within it, "unsteady" beyond — except
// setup_s, which reads "info" beyond its bound (see the top of the file).
func steadiness(xs []float64, m specMetric) string {
	s := spread(xs)
	switch {
	case s <= m.Bound/3:
		return "ok"
	case s <= m.Bound:
		return "wide"
	case m.Name == "setup_s":
		return "info"
	default:
		return "unsteady"
	}
}

// judge applies the small-sandbox rule to parent runs a and change runs
// b, paired in order.
func judge(a, b []float64, m specMetric) (wins, pairs int, verdict string) {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case 10*wins >= 9*pairs && pairs > 0 && math.Abs(mb-ma) > q3a-q1a:
		return wins, pairs, "better"
	case spread(a) > m.Bound && m.Name != "setup_s" && !allBetter:
		return wins, pairs, "unresolved"
	case worseBy > m.Bound:
		return wins, pairs, "worse"
	default:
		return wins, pairs, "same"
	}
}

func printRows(w io.Writer, rows []row, two bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	if two {
		fmt.Fprintln(tw, "workload\tmetric\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\twins\tbound\tverdict\t")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tn\tq1\tmedian\tq3\tspread\tbound\tverdict\t")
	}
	for _, r := range rows {
		q1a, ma, q3a := quartiles(r.a)
		if two {
			q1b, mb, q3b := quartiles(r.b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d/%d\t%.3g\t%s\t\n",
				r.workload, r.metric, q1a, ma, q3a, q1b, mb, q3b, r.wins, r.pairs, r.bound, r.verdict)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%.3g\t%s\t\n",
				r.workload, r.metric, len(r.a), q1a, ma, q3a, spread(r.a), r.bound, r.verdict)
		}
	}
	tw.Flush()
}
