// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the index). Each benchmark runs a
// CPU-scaled version of the corresponding experiment and reports its
// headline numbers as benchmark metrics; `go run ./cmd/sapsbench` prints the
// full rows/series. The bench-scale runs use fewer rounds and workers than
// the paper-scale configs in internal/experiments so the whole suite
// completes in minutes on a laptop.
package sapspsgd_test

import (
	"io"
	"runtime"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/experiments"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/spectral"
	"sapspsgd/internal/tensor"
)

// benchWorkload shrinks a paper workload to bench scale.
func benchWorkload(w experiments.Workload, rounds int) experiments.Workload {
	w.Rounds = rounds
	w.TrainSamples = 1024
	w.ValidSamples = 256
	// Bench models are ~40k params; scale the most aggressive ratios so the
	// sparsifiers still transmit a meaningful number of coordinates.
	w.Ratios = experiments.Ratios{TopK: 200, SFed: 50, DCD: 4, SAPS: 50}
	return w
}

// runSuite executes the 7-algorithm convergence suite at bench scale and
// reports the SAPS metrics against the best baseline. The suites are the
// long pole of the benchmark set, so they honor -short (see DESIGN.md §6:
// `go test -short ./...` is the quick tier-1 sweep, the full run exercises
// everything).
func runSuite(b *testing.B, w experiments.Workload, rounds, n int) []*scenario.RunOutput {
	b.Helper()
	if testing.Short() {
		b.Skip("convergence suite skipped in -short mode")
	}
	var results []*scenario.RunOutput
	for i := 0; i < b.N; i++ {
		suite := experiments.ConvergenceSuite{
			Workload:  benchWorkload(w, rounds),
			N:         n,
			Seed:      uint64(7 + i),
			EvalEvery: rounds / 8,
		}
		var err error
		results, err = suite.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return results
}

func reportSAPS(b *testing.B, results []*scenario.RunOutput) {
	b.Helper()
	for _, r := range results {
		if r.Algorithm == "SAPS-PSGD" {
			f := r.Final()
			b.ReportMetric(f.ValAcc*100, "saps-acc-%")
			b.ReportMetric(f.TrafficMB, "saps-traffic-MB")
			b.ReportMetric(f.TimeSec, "saps-commtime-s")
		}
		if r.Algorithm == "D-PSGD" {
			b.ReportMetric(r.Final().TrafficMB, "dpsgd-traffic-MB")
		}
	}
}

// --- Table I: analytic communication cost model -----------------------------

func BenchmarkTable1CostModel(b *testing.B) {
	p := experiments.NewCostParams(32, 6653628, 100, 1000, 2)
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(p)
		t.WriteMarkdown(io.Discard)
	}
	costs := experiments.WorkerCostValues(p)
	b.ReportMetric(costs["SAPS-PSGD"]*4/1e6, "saps-MB")
	b.ReportMetric(costs["D-PSGD"]*4/1e6, "dpsgd-MB")
}

// --- Fig. 1: the 14-city bandwidth matrix ----------------------------------

func BenchmarkFig1BandwidthMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1Table().WriteMarkdown(io.Discard)
	}
	bw := netsim.FourteenCities()
	b.ReportMetric(bw.MeanBandwidth(), "mean-MBps")
}

// --- Fig. 3 + Table III: convergence, 7 algorithms, 3 models ---------------

func BenchmarkFig3ConvergenceMNIST(b *testing.B) {
	results := runSuite(b, experiments.MNISTWorkload(), 64, 8)
	reportSAPS(b, results)
}

func BenchmarkFig3ConvergenceCIFAR(b *testing.B) {
	results := runSuite(b, experiments.CIFARWorkload(), 64, 8)
	reportSAPS(b, results)
}

func BenchmarkFig3ConvergenceResNet(b *testing.B) {
	results := runSuite(b, experiments.ResNetWorkload(), 48, 8)
	reportSAPS(b, results)
}

// --- Fig. 4: accuracy vs communication size --------------------------------

func BenchmarkFig4TrafficMNIST(b *testing.B) {
	results := runSuite(b, experiments.MNISTWorkload(), 64, 8)
	experiments.WriteFig4(io.Discard, results)
	reportSAPS(b, results)
}

// --- Fig. 5: bandwidth utilization ------------------------------------------

func BenchmarkFig5Bandwidth14Cities(b *testing.B) {
	var series map[string][]float64
	for i := 0; i < b.N; i++ {
		series = experiments.Fig5Fourteen(400, uint64(3+i))
	}
	b.ReportMetric(experiments.MeanOf(series["SAPS-PSGD"]), "saps-MBps")
	b.ReportMetric(experiments.MeanOf(series["RandomChoose"]), "random-MBps")
	b.ReportMetric(experiments.MeanOf(series["D-PSGD"]), "ring-MBps")
}

func BenchmarkFig5Bandwidth32Workers(b *testing.B) {
	var series map[string][]float64
	for i := 0; i < b.N; i++ {
		series = experiments.Fig5ThirtyTwo(400, uint64(9+i))
	}
	b.ReportMetric(experiments.MeanOf(series["SAPS-PSGD"]), "saps-MBps")
	b.ReportMetric(experiments.MeanOf(series["RandomChoose"]), "random-MBps")
	b.ReportMetric(experiments.MeanOf(series["D-PSGD"]), "ring-MBps")
}

// --- Fig. 6 + Table IV: communication time to target accuracy --------------

func BenchmarkFig6CommTimeMNIST(b *testing.B) {
	results := runSuite(b, experiments.MNISTWorkload(), 64, 8)
	experiments.WriteFig6(io.Discard, results)
	target := 0.75
	for _, r := range results {
		if rec, ok := r.FirstReaching(target); ok && r.Algorithm == "SAPS-PSGD" {
			b.ReportMetric(rec.TimeSec, "saps-time-to-75%")
		}
		if rec, ok := r.FirstReaching(target); ok && r.Algorithm == "D-PSGD" {
			b.ReportMetric(rec.TimeSec, "dpsgd-time-to-75%")
		}
	}
}

// --- Ablations (DESIGN.md §5 A5) --------------------------------------------

// BenchmarkAblationTThres sweeps Algorithm 3's recency window: smaller
// TThres forces reconnection more often (better mixing, lower matched
// bandwidth).
func BenchmarkAblationTThres(b *testing.B) {
	bw := netsim.FourteenCities()
	for _, tt := range []int{2, 5, 10, 20} {
		b.Run(map[int]string{2: "T2", 5: "T5", 10: "T10", 20: "T20"}[tt], func(b *testing.B) {
			var mean float64
			var rho float64
			for i := 0; i < b.N; i++ {
				gen := gossip.NewGenerator(bw, gossip.Config{BThres: 2, TThres: tt}, uint64(11+i))
				var ws []*tensor.Matrix
				total := 0.0
				const iters = 200
				for t := 0; t < iters; t++ {
					r := gen.Next(t)
					total += gossip.MeanMatchedBandwidth(r.Match, bw)
					if t < 100 {
						ws = append(ws, r.W())
					}
				}
				mean = total / iters
				rho = spectral.RhoOfExpectedWtW(ws, 200)
			}
			b.ReportMetric(mean, "matched-MBps")
			b.ReportMetric(rho, "rho")
		})
	}
}

// BenchmarkAblationCompression sweeps SAPS's compression ratio c on the
// MNIST workload: traffic scales as 1/c while accuracy degrades gracefully.
func BenchmarkAblationCompression(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	for _, c := range []float64{4, 20, 100} {
		name := map[float64]string{4: "c4", 20: "c20", 100: "c100"}[c]
		b.Run(name, func(b *testing.B) {
			var final scenario.Eval
			for i := 0; i < b.N; i++ {
				w := benchWorkload(experiments.MNISTWorkload(), 48)
				w.Ratios.SAPS = c
				n := 8
				bw := experiments.EnvN(n, 7)
				alg, err := experiments.BuildAlgorithm("SAPS-PSGD", w, n, bw, 7)
				if err != nil {
					b.Fatal(err)
				}
				_, valid := w.Dataset()
				final = scenario.Train(alg, bw, w.Rounds, scenario.RunOptions{EvalEvery: w.Rounds, Valid: valid}).Final()
			}
			b.ReportMetric(final.ValAcc*100, "acc-%")
			b.ReportMetric(final.TrafficMB, "traffic-MB")
		})
	}
}

// BenchmarkAblationMatchingPolicy compares adaptive vs random peer selection
// end to end (bandwidth utilization + accuracy).
func BenchmarkAblationMatchingPolicy(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	for _, name := range []string{"SAPS-PSGD", "RandomChoose"} {
		b.Run(name, func(b *testing.B) {
			var res *scenario.RunOutput
			for i := 0; i < b.N; i++ {
				w := benchWorkload(experiments.MNISTWorkload(), 48)
				n := 14
				bw := netsim.FourteenCities()
				alg, err := experiments.BuildAlgorithm(name, w, n, bw, 5)
				if err != nil {
					b.Fatal(err)
				}
				_, valid := w.Dataset()
				res = scenario.Train(alg, bw, w.Rounds, scenario.RunOptions{EvalEvery: w.Rounds, Valid: valid})
			}
			f := res.Final()
			b.ReportMetric(f.ValAcc*100, "acc-%")
			b.ReportMetric(f.TimeSec, "commtime-s")
		})
	}
}

// BenchmarkAblationBThres sweeps the bandwidth threshold of Algorithm 1:
// higher thresholds concentrate traffic on fast links until B* fragments and
// the recency fallback dominates.
func BenchmarkAblationBThres(b *testing.B) {
	bw := netsim.FourteenCities()
	for _, bt := range []float64{0, 2, 5, 10} {
		name := map[float64]string{0: "B0", 2: "B2", 5: "B5", 10: "B10"}[bt]
		b.Run(name, func(b *testing.B) {
			var mean float64
			forced := 0
			for i := 0; i < b.N; i++ {
				gen := gossip.NewGenerator(bw, gossip.Config{BThres: bt, TThres: 8}, uint64(13+i))
				total := 0.0
				forced = 0
				const iters = 200
				for t := 0; t < iters; t++ {
					r := gen.Next(t)
					total += gossip.MeanMatchedBandwidth(r.Match, bw)
					if r.Forced {
						forced++
					}
				}
				mean = total / iters
			}
			b.ReportMetric(mean, "matched-MBps")
			b.ReportMetric(float64(forced), "forced-rounds")
		})
	}
}

// BenchmarkAblationChurn compares SAPS under stable membership vs 10%/50%
// leave/rejoin churn (extension E1).
func BenchmarkAblationChurn(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	for _, name := range []string{"SAPS-PSGD", "SAPS-PSGD(churn)"} {
		sub := "stable"
		if name == "SAPS-PSGD(churn)" {
			sub = "churn"
		}
		b.Run(sub, func(b *testing.B) {
			var res *scenario.RunOutput
			for i := 0; i < b.N; i++ {
				w := benchWorkload(experiments.MNISTWorkload(), 48)
				n := 8
				bw := experiments.EnvN(n, 11)
				alg, err := experiments.BuildAlgorithm(name, w, n, bw, 11)
				if err != nil {
					b.Fatal(err)
				}
				_, valid := w.Dataset()
				res = scenario.Train(alg, bw, w.Rounds, scenario.RunOptions{EvalEvery: w.Rounds, Valid: valid})
			}
			b.ReportMetric(res.Final().ValAcc*100, "acc-%")
		})
	}
}

// BenchmarkAblationQuantizationVsSparsification quantifies the related-work
// argument: QSGD quantization cannot reach the mask sparsifier's
// compression (extension E3).
func BenchmarkAblationQuantizationVsSparsification(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	for _, name := range []string{"QSGD-PSGD", "SAPS-PSGD"} {
		b.Run(name, func(b *testing.B) {
			var res *scenario.RunOutput
			for i := 0; i < b.N; i++ {
				w := benchWorkload(experiments.MNISTWorkload(), 48)
				n := 8
				bw := experiments.EnvN(n, 13)
				alg, err := experiments.BuildAlgorithm(name, w, n, bw, 13)
				if err != nil {
					b.Fatal(err)
				}
				_, valid := w.Dataset()
				res = scenario.Train(alg, bw, w.Rounds, scenario.RunOptions{EvalEvery: w.Rounds, Valid: valid})
			}
			f := res.Final()
			b.ReportMetric(f.ValAcc*100, "acc-%")
			b.ReportMetric(f.TrafficMB, "traffic-MB")
		})
	}
}

// --- End-to-end training throughput -----------------------------------------

func BenchmarkSAPSRoundThroughput32Workers(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	w := benchWorkload(experiments.MNISTWorkload(), 1)
	n := 32
	bw := experiments.EnvN(n, 3)
	alg, err := experiments.BuildAlgorithm("SAPS-PSGD", w, n, bw, 3)
	if err != nil {
		b.Fatal(err)
	}
	led := netsim.NewLedger(bw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Step(i, led)
	}
	b.ReportMetric(float64(alg.Models()[0].ParamCount()), "params")
}

// BenchmarkResNet20ForwardBackward exercises the paper-scale ResNet-20 on a
// CIFAR-sized input — the full model, not the bench-scaled one.
func BenchmarkResNet20ForwardBackward(b *testing.B) {
	if testing.Short() {
		b.Skip("training benchmark skipped in -short mode")
	}
	m := nn.NewResNet20(1)
	r := rng.New(1)
	x := tensor.NewMatrix(4, 3*32*32)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	ys := []int{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, ys)
		m.Backward(dl)
	}
	b.ReportMetric(float64(m.ParamCount()), "params")
}

// --- BENCH.json: traffic smoke + fleet shard sweep ---------------------------

// BenchmarkTrafficSmoke runs every baseline for a handful of rounds at tiny
// scale on the engine's Pattern/Codec compositions, then sweeps the 512-node
// SAPS fleet scenario across engine shard counts (1 vs 8 — the serial
// reference against the parallel sharded runtime). It stays enabled under
// -short so CI's bench step (`go test -bench . -benchtime 1x -short`) always
// produces the schema-versioned BENCH.json summary that the bench-regression
// job diffs against the committed bench_baseline.json (byte counts are
// deterministic and must match exactly; wall time may regress at most 25%).
func BenchmarkTrafficSmoke(b *testing.B) {
	const n, rounds = 8, 3
	tr, _ := dataset.TinyTask(240, 4, 31)
	shards := dataset.PartitionIID(tr, n, 1)
	bw := netsim.RandomUniform(n, 1, 5, rng.New(7))
	var rows []scenario.AlgoRow
	var sweep scenario.ScenarioSweep
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range append(append([]string{}, experiments.AlgorithmNames...), "QSGD-PSGD", "PS-PSGD") {
			fc := algos.FleetConfig{
				N:       n,
				Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{12}, 4, 5) },
				Shards:  shards,
				LR:      0.1,
				Batch:   8,
				Seed:    3,
			}
			var alg algos.Algorithm
			switch name {
			case "PSGD":
				alg = algos.NewPSGD(fc)
			case "TopK-PSGD":
				alg = algos.NewTopKPSGD(fc, 20)
			case "FedAvg":
				alg = algos.NewFedAvg(fc, bw, 0.5, 2)
			case "S-FedAvg":
				alg = algos.NewSFedAvg(fc, bw, 0.5, 2, 10)
			case "D-PSGD":
				alg = algos.NewDPSGD(fc)
			case "DCD-PSGD":
				alg = algos.NewDCDPSGD(fc, 4)
			case "QSGD-PSGD":
				alg = algos.NewQSGDPSGD(fc, 4)
			case "PS-PSGD":
				alg = algos.NewPSPSGD(fc, bw)
			case "SAPS-PSGD":
				cfg := core.Config{
					Workers: n, Compression: 10, LR: 0.1, Batch: 8, LocalSteps: 1,
					Gossip: gossip.Config{BThres: 2, TThres: 5}, Seed: 3,
				}
				alg = algos.NewSAPS(fc, bw, cfg)
			}
			out := scenario.Train(alg, bw, rounds, scenario.RunOptions{})
			var volume int64
			for w := 0; w < n; w++ {
				s, rcv := out.Ledger.WorkerBytes(w)
				volume += s + rcv
			}
			rows = append(rows, scenario.AlgoRow{
				Algorithm:      name,
				BytesPerRound:  volume / int64(n) / int64(rounds),
				SimSeconds:     out.Result.SimSeconds,
				WallMsPerRound: out.Result.WallSeconds * 1000 / rounds,
			})
		}
		sweep = fleetShardSweep(b)
	}
	// The declarative fault scenario (scheduled crash/rejoin + seeded
	// mortality) rides in the summary too, so fault-injection traffic is
	// regression-gated like every other row.
	faults := scenarioSweep(b, "internal/scenario/testdata/saps-crash-rejoin.json", 1, 4)
	out := &scenario.BenchFile{
		SchemaVersion: scenario.BenchSchemaVersion,
		Source:        "go-test-bench",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Algorithms:    rows,
		Scenarios:     []scenario.ScenarioSweep{sweep, faults},
	}
	if err := scenario.WriteBench("BENCH.json", out); err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Algorithm == "SAPS-PSGD" {
			b.ReportMetric(float64(r.BytesPerRound), "saps-B/round")
		}
		if r.Algorithm == "D-PSGD" {
			b.ReportMetric(float64(r.BytesPerRound), "dpsgd-B/round")
		}
	}
	b.ReportMetric(sweep.Speedup, "saps512-speedup-8shards")
}

// fleetShardSweep executes the 512-node SAPS scenario serially (1 shard) and
// across the 8-shard parallel runtime, verifying byte determinism on the
// spot. Wall-clock speedup depends on the machine's core count.
func fleetShardSweep(b *testing.B) scenario.ScenarioSweep {
	b.Helper()
	return scenarioSweep(b, "internal/scenario/testdata/saps-512.json", 1, 8)
}

// scenarioSweep runs one scenario spec across the given shard counts,
// asserting byte determinism on the spot.
func scenarioSweep(b *testing.B, path string, shardCounts ...int) scenario.ScenarioSweep {
	b.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	sweep := scenario.ScenarioSweep{Name: spec.Name, Algo: spec.Algo, Nodes: spec.Nodes, Rounds: spec.Rounds}
	for _, shards := range shardCounts {
		res, err := spec.Run(shards)
		if err != nil {
			b.Fatal(err)
		}
		sweep.Runs = append(sweep.Runs, res)
	}
	for _, run := range sweep.Runs[1:] {
		if run.TotalBytes != sweep.Runs[0].TotalBytes {
			b.Fatalf("shard sweep traffic diverged: %d vs %d bytes", run.TotalBytes, sweep.Runs[0].TotalBytes)
		}
	}
	sweep.ComputeSpeedup()
	return sweep
}
