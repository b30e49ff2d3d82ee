// Command e2ebench is SecureAngle's end-to-end benchmark. It drives the
// real program in-process — AP pipelines, agents over loopback TCP, a
// journaled controller — through three seeded workloads, checks every
// output against an oracle, and prints one JSON result line.
//
// Run it through run.sh from the repository root:
//
//	sh e2ebench/run.sh --workload phy_fleet --seed 1 --seconds 30 --trace 0
//	sh e2ebench/run.sh compare before.jsonl after.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced for half the time and traced for the other half, and reports
// the per-layer breakdown. See README.md for every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its settings, the metrics reported so
// far, and the oracle's verdicts.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory for journals, removed at exit

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

// set reports one metric.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a correctness failure: the run prints its result
// with correct=false and exits non-zero.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", msg)
}

// note prints a diagnostic line to standard error.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// account adds oracle-checked operations and the ones that failed.
func (b *bench) account(attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
}

// maxFailedFrac is the share of failed operations (dropped decisions,
// undelivered directives) above which a run counts as incorrect. The
// workloads run well below saturation, so a healthy build loses none on
// a quiet host; while neighbours took a third of both vCPUs for a whole
// run, phy_fleet lost 0.12% (15 deliveries). Compare judges any rise in
// failures worse, however small.
const maxFailedFrac = 0.005

// workloads maps each workload name to the function that runs it. The
// one-line rationale of each sits beside its definition (phy.go,
// ingest.go, storm.go) and in README.md.
var workloads = map[string]func(*bench) error{
	"phy_fleet":         runPhyFleet,
	"controller_ingest": runControllerIngest,
	"spoof_storm":       runSpoofStorm,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			os.Exit(2)
		}
		return
	}
	res, err := runMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runMain(args []string) (*result, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: phy_fleet, controller_ingest or spoof_storm")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return nil, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build"), "work-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir (run from the repository root): %w", err)
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		dir:     dir,
		metrics: map[string]metric{},
	}
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", *workload, err)
	}
	if b.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", *workload)
	}
	failedFrac := float64(b.failed) / float64(b.attempted)
	if failedFrac > maxFailedFrac {
		b.problem("failed_frac %.5f above %.3f (%d of %d operations)", failedFrac, maxFailedFrac, b.failed, b.attempted)
	}
	if b.traced {
		b.set("failed_frac", failedFrac, "frac")
	} else {
		b.set("success_frac", 1-failedFrac, "frac")
	}
	if err := b.complete(); err != nil {
		return nil, err
	}
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}
