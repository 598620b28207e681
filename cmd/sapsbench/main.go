// Command sapsbench regenerates the paper's tables and figures from the
// CPU-scaled reproduction and prints them as markdown tables or CSV series.
//
// Usage:
//
//	sapsbench -exp table1            # Table I  (communication cost model)
//	sapsbench -exp table2            # Table II (experimental settings)
//	sapsbench -exp fig1              # Fig. 1   (14-city bandwidth matrix)
//	sapsbench -exp fig3 -workload mnist -n 16 -rounds 120
//	sapsbench -exp fig4 -workload mnist
//	sapsbench -exp fig5 -env 14 -iters 400
//	sapsbench -exp fig6 -workload mnist
//	sapsbench -exp table3 -workload all
//	sapsbench -exp table4 -workload all
//	sapsbench -exp all               # everything at default scale
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/experiments"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/metrics"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/profiling"
	"sapspsgd/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sapsbench:", err)
		os.Exit(1)
	}
}

var (
	flagExp      = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig1|fig3|fig4|fig5|fig6|all")
	flagWorkload = flag.String("workload", "mnist", "workload: mnist|cifar|resnet|all")
	flagN        = flag.Int("n", 16, "number of workers")
	flagRounds   = flag.Int("rounds", 0, "override communication rounds (0 = workload default)")
	flagIters    = flag.Int("iters", 400, "iterations for fig5")
	flagEnv      = flag.Int("env", 14, "fig5 environment: 14 (cities) or 32 (random)")
	flagSeed     = flag.Uint64("seed", 7, "random seed")
	flagCSV      = flag.Bool("csv", false, "emit tables as CSV instead of markdown")
	prof         profiling.Config
)

func run() error {
	prof.AddFlags(nil)
	flag.Parse()
	return prof.Run(dispatch)
}

func dispatch() error {
	switch *flagExp {
	case "table1":
		return table1()
	case "table2":
		return table2()
	case "fig1":
		return fig1()
	case "fig3", "fig4", "fig6", "table3", "table4":
		return convergence(*flagExp)
	case "fig5":
		return fig5()
	case "spectral":
		return spectralSweep()
	case "ablation":
		return ablations()
	case "trace":
		return traceRun()
	case "all":
		for _, e := range []func() error{table1, table2, fig1, fig5, spectralSweep} {
			if err := e(); err != nil {
				return err
			}
		}
		return convergence("all")
	default:
		return fmt.Errorf("unknown experiment %q", *flagExp)
	}
}

func emitTable(t *metrics.Table) {
	if *flagCSV {
		t.WriteCSV(os.Stdout)
	} else {
		t.WriteMarkdown(os.Stdout)
	}
	fmt.Println()
}

func table1() error {
	p := experiments.NewCostParams(32, 6653628, 100, 1000, 2)
	emitTable(experiments.Table1(p))
	return nil
}

func table2() error {
	emitTable(experiments.Table2())
	return nil
}

func fig1() error {
	emitTable(experiments.Fig1Table())
	return nil
}

func spectralSweep() error {
	bw := netsim.FourteenCities()
	emitTable(experiments.SpectralSweep(bw, 2, 1.0/100, []int{2, 5, 10, 20, 40}, 200, *flagSeed))
	return nil
}

// traceRun trains SAPS on the 14-city environment with a round recorder
// attached and dumps the per-round event log as CSV (who matched whom, link
// bandwidths, forced reconnections, payload sizes, loss).
func traceRun() error {
	w := selectedWorkloads()[0]
	rounds := *flagRounds
	if rounds <= 0 {
		rounds = 100
	}
	w = w.WithRounds(rounds)
	bw := netsim.FourteenCities()
	const n = 14
	tr, _ := w.Dataset()
	fc := algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return w.Factory(*flagSeed) },
		Shards:  dataset.PartitionIID(tr, n, *flagSeed),
		LR:      w.LR,
		Batch:   w.Batch,
		Seed:    *flagSeed,
	}
	cfg := core.Config{
		Workers: n, Compression: 100, LR: w.LR, Batch: w.Batch, LocalSteps: 1,
		Gossip: gossip.Config{BThres: 4, TThres: 10}, Seed: *flagSeed,
	}
	rec := scenario.Train(algos.NewSAPS(fc, bw, cfg), bw, rounds, scenario.RunOptions{Trace: true}).Trace
	fmt.Printf("# SAPS round trace: %d rounds, mean matched %.3f MB/s, %.1f%% forced rounds\n",
		rec.Len(), rec.MeanMatchedBandwidth(), 100*rec.ForcedFraction())
	return rec.WriteCSV(os.Stdout)
}

func ablations() error {
	w := selectedWorkloads()[0]
	if *flagRounds > 0 {
		w = w.WithRounds(*flagRounds)
	}
	cs, err := experiments.CompressionSweep(w, *flagN, []float64{4, 20, 100, 400}, *flagSeed)
	if err != nil {
		return err
	}
	emitTable(cs)
	ps, err := experiments.PeerSelectionAblation(w, *flagN, *flagSeed)
	if err != nil {
		return err
	}
	emitTable(ps)
	ls, err := experiments.LocalStepsSweep(w, *flagN, []int{1, 2, 4, 8}, *flagSeed)
	if err != nil {
		return err
	}
	emitTable(ls)
	if *flagN&(*flagN-1) == 0 {
		ta, err := experiments.TopologyAblation(w, *flagN, *flagSeed)
		if err != nil {
			return err
		}
		emitTable(ta)
	}
	return nil
}

func fig5() error {
	var series map[string][]float64
	if *flagEnv == 32 {
		series = experiments.Fig5ThirtyTwo(*flagIters, *flagSeed)
	} else {
		series = experiments.Fig5Fourteen(*flagIters, *flagSeed)
	}
	fmt.Printf("# Fig. 5: bandwidth utilization (%d-worker environment)\n", *flagEnv)
	experiments.WriteFig5(os.Stdout, series)
	fmt.Printf("# means: SAPS=%.3f Random=%.3f Ring=%.3f MB/s\n\n",
		experiments.MeanOf(series["SAPS-PSGD"]),
		experiments.MeanOf(series["RandomChoose"]),
		experiments.MeanOf(series["D-PSGD"]))
	return nil
}

func selectedWorkloads() []experiments.Workload {
	switch *flagWorkload {
	case "mnist":
		return []experiments.Workload{experiments.MNISTWorkload()}
	case "cifar":
		return []experiments.Workload{experiments.CIFARWorkload()}
	case "resnet":
		return []experiments.Workload{experiments.ResNetWorkload()}
	default:
		return experiments.Workloads()
	}
}

func convergence(which string) error {
	for _, w := range selectedWorkloads() {
		if *flagRounds > 0 {
			w = w.WithRounds(*flagRounds)
		}
		fmt.Printf("# workload %s (%s), %d workers, %d rounds\n", w.Name, w.PaperName, *flagN, w.Rounds)
		start := time.Now()
		suite := experiments.ConvergenceSuite{Workload: w, N: *flagN, Seed: *flagSeed}
		results, err := suite.Run()
		if err != nil {
			return err
		}
		fmt.Printf("# suite completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		printConvergence(which, w, results)
	}
	return nil
}

func printConvergence(which string, w experiments.Workload, results []*scenario.RunOutput) {
	if which == "fig3" || which == "all" {
		experiments.WriteFig3(os.Stdout, results)
		fmt.Println()
	}
	if which == "fig4" || which == "all" {
		experiments.WriteFig4(os.Stdout, results)
		fmt.Println()
	}
	if which == "fig6" || which == "all" {
		experiments.WriteFig6(os.Stdout, results)
		fmt.Println()
	}
	if which == "table3" || which == "all" {
		emitTable(experiments.Table3(w.Name, results))
	}
	if which == "table4" || which == "all" {
		emitTable(experiments.Table4(w.Name, w.TargetAcc, results))
	}
	emitTable(experiments.TrafficSummary(results))
}
