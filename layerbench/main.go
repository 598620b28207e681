// Command layerbench is the repository's layered fleet benchmark. It runs one
// named workload (a scenario spec under workloads/) twice over:
//
//   - untraced trials through the public scenario entry points, repeated
//     for -seconds, which give the end-to-end metrics;
//   - one traced run that rebuilds the same fleet from public layer
//     constructors wrapped in timing decorators, which gives the per-layer
//     metrics.
//
// Every trial and the traced run must agree bit for bit on wire bytes,
// simulated seconds and final loss, and every ledger must conserve bytes.
// The last line of standard output is one JSON object; -trace 0 reports the
// end-to-end metrics and -trace 1 the per-layer ones. A failed check makes
// the command exit with status 1 after printing its result.
//
// With -trace 1 the spans are also written to .bench_build/spans/ as CSV.
//
// Usage, from the repository root:
//
//	bash layerbench/run.sh -workload saps-train -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sapspsgd/internal/scenario"
)

// procs is the benchmark's processor budget: every workload runs with
// GOMAXPROCS 2 and at most 2 engine shards.
const procs = 2

// spansDir is where -trace 1 writes the traced run's spans, relative to the
// working directory.
var spansDir = filepath.Join(".bench_build", "spans")

// minTrials is the least number of untraced trials a run makes: the repeats
// are checked against each other and set-up is reported as their median.
const minTrials = 3

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; replaces the seed of the workload's spec")
	seconds := flag.Float64("seconds", 10, "how long the untraced trials run")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.Parse()
	if *workload == "" || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	s, err := loadSpec(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
	res := run(s, *seconds, *traceFlag == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the result line.
func run(s *scenario.Spec, seconds float64, traced bool) result {
	fmt.Printf("workload %s  seed %d  nodes %d  rounds %d  GOMAXPROCS %d\n", s.Name, s.Seed, s.Nodes, s.Rounds, runtime.GOMAXPROCS(0))
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	fail := func(rounds int, format string, args ...any) {
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
		res.Correct = false
		res.Failed += rounds
	}
	// check applies the output checks to one execution's outcome and counts
	// all of its rounds as failed when any check fails. ref is the first
	// good trial's outcome (nil for the first trial).
	check := func(what string, o outcome, ref *outcome) bool {
		var problems []string
		if !finite(o.finalLoss) || !finite(o.simSeconds) {
			problems = append(problems, "non-finite loss or simulated time")
		}
		if !o.conserved {
			problems = append(problems, "ledger does not conserve bytes")
		}
		if ref != nil && !o.sameAs(*ref) {
			problems = append(problems, fmt.Sprintf("outcome differs from the first trial's (%v)", *ref))
		}
		if len(problems) > 0 {
			fail(s.Rounds, "%s (%v): %s", what, o, strings.Join(problems, "; "))
		}
		return len(problems) == 0
	}

	var trials []trial
	var ref *outcome
	start := time.Now()
	// Trials repeat at least minTrials times, then while the next one is
	// expected to finish within the measuring time.
	for n := 0; n < minTrials || since(start)*float64(n+1)/float64(n) <= seconds; n++ {
		res.Attempted += s.Rounds
		t, err := runTrial(s)
		if err != nil {
			fail(s.Rounds, "trial %d: %v", n+1, err)
			continue
		}
		fmt.Printf("trial %d: setup %.4f s, loop %.4f s, peak RSS %.1f MB\n", n+1, t.setup, t.loop, float64(t.peakRSS)/1e6)
		if check(fmt.Sprintf("trial %d", n+1), t.res, ref) {
			trials = append(trials, t)
			if ref == nil {
				first := t.res
				ref = &first
			}
		}
	}
	if len(trials) == 0 {
		return res
	}
	e2e, samples := endToEnd(s, trials)
	fmt.Printf("untraced: %d trials, %d round samples, outcome %v\n", len(trials), samples, trials[0].res)

	res.Attempted += s.Rounds
	run, err := runTraced(s)
	var layers []metric
	if err != nil {
		fail(s.Rounds, "traced run: %v", err)
	} else if check("traced run", run.res, ref) {
		timed := make([]float64, len(trials))
		for i, t := range trials {
			_, timed[i], _ = timedMs(s, t)
		}
		var cal calibration
		if traced {
			cal = calibrate(s)
		}
		var unattributed float64
		layers, unattributed = perLayer(s, run, median(timed), cal)
		fmt.Printf("traced: outcome identical, %d spans\n", len(run.tr.all()))
		if unattributed > unattributedSlack || unattributed < -unattributedSlack {
			fail(s.Rounds, "trace.unattributed_share %.4f outside ±%.2f", unattributed, unattributedSlack)
		}
		if traced {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.csv", s.Name, s.Seed))
			if err := run.tr.writeCSV(path, specMode(s) == modeAsync); err != nil {
				fmt.Fprintln(os.Stderr, "layerbench: writing spans:", err)
			} else {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	}

	fmt.Printf("error_rate %v (%d of %d rounds failed)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Println("end-to-end:")
	printMetrics(e2e)
	if layers != nil {
		fmt.Println("per-layer:")
		printMetrics(layers)
	}
	report := e2e
	if traced {
		report = layers
	}
	for _, m := range report {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			continue
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
}
