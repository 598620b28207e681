package experiments

import (
	"fmt"
	"io"

	"sapspsgd/internal/metrics"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/scenario"
)

// ConvergenceSuite is the shared engine behind Fig. 3 (accuracy vs epoch),
// Fig. 4 (accuracy vs traffic), Fig. 6 (accuracy vs communication time),
// Table III (final accuracy) and Table IV (traffic/time at target accuracy):
// one training run per algorithm per workload, with the ledger recording
// traffic and simulated time.
type ConvergenceSuite struct {
	Workload Workload
	N        int
	Seed     uint64
	// Algorithms defaults to AlgorithmNames when empty.
	Algorithms []string
	// EvalEvery defaults to Rounds/20.
	EvalEvery int
	// NonIID shards the training data by label (federated-style skew)
	// instead of IID — an extension experiment beyond the paper's IID
	// evaluation.
	NonIID bool
}

// Run executes the suite and returns one run per algorithm.
func (s ConvergenceSuite) Run() ([]*scenario.RunOutput, error) {
	names := s.Algorithms
	if len(names) == 0 {
		names = AlgorithmNames
	}
	bw := EnvN(s.N, s.Seed)
	_, valid := s.Workload.Dataset()
	out := make([]*scenario.RunOutput, 0, len(names))
	for _, name := range names {
		alg, err := BuildAlgorithmSharded(name, s.Workload, s.N, bw, s.Seed, s.NonIID)
		if err != nil {
			return nil, err
		}
		out = append(out, scenario.Train(alg, bw, s.Workload.Rounds, scenario.RunOptions{
			EvalEvery: s.EvalEvery,
			Valid:     valid,
		}))
	}
	return out, nil
}

// WriteFig3 renders the accuracy series of Fig. 3 as CSV, one row per
// evaluation point (the figure's epoch axis is the evaluation index).
func WriteFig3(w io.Writer, results []*scenario.RunOutput) {
	fmt.Fprintf(w, "# Fig. 3: top-1 validation accuracy vs epoch\n")
	names := make([]string, 0, len(results))
	series := map[string][]float64{}
	for _, r := range results {
		names = append(names, r.Algorithm)
		var accs []float64
		for _, rec := range r.Evals {
			accs = append(accs, rec.ValAcc)
		}
		series[r.Algorithm] = accs
	}
	metrics.Series(w, names, series)
}

// WriteFig4 renders accuracy vs per-worker communication size (Fig. 4): for
// each algorithm, pairs of (traffic MB, accuracy).
func WriteFig4(w io.Writer, results []*scenario.RunOutput) {
	fmt.Fprintf(w, "# Fig. 4: accuracy vs per-worker communication size (MB)\n")
	fmt.Fprintln(w, "algorithm,traffic_mb,accuracy")
	for _, r := range results {
		for _, rec := range r.Evals {
			fmt.Fprintf(w, "%s,%s,%s\n", r.Algorithm, metrics.F(rec.TrafficMB), metrics.F(rec.ValAcc))
		}
	}
}

// WriteFig6 renders accuracy vs simulated communication time (Fig. 6).
func WriteFig6(w io.Writer, results []*scenario.RunOutput) {
	fmt.Fprintf(w, "# Fig. 6: accuracy vs communication time (s)\n")
	fmt.Fprintln(w, "algorithm,comm_time_s,accuracy")
	for _, r := range results {
		for _, rec := range r.Evals {
			fmt.Fprintf(w, "%s,%s,%s\n", r.Algorithm, metrics.F(rec.TimeSec), metrics.F(rec.ValAcc))
		}
	}
}

// Table3 builds the final-accuracy comparison (Table III).
func Table3(workload string, results []*scenario.RunOutput) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("Table III (%s): final top-1 validation accuracy", workload),
		"Algorithm", "Accuracy")
	for _, r := range results {
		t.Add(r.Algorithm, metrics.Pct(r.Final().ValAcc))
	}
	return t
}

// Table4 builds the traffic/time-at-target comparison (Table IV).
func Table4(workload string, target float64, results []*scenario.RunOutput) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Table IV (%s): traffic and time to reach %s accuracy", workload, metrics.Pct(target)),
		"Algorithm", "Traffic (MB)", "Comm time (s)", "Reached")
	for _, r := range results {
		rec, ok := r.FirstReaching(target)
		if ok {
			t.Add(r.Algorithm, metrics.F(rec.TrafficMB), metrics.F(rec.TimeSec), "yes")
		} else {
			f := r.Final()
			t.Add(r.Algorithm, metrics.F(f.TrafficMB), metrics.F(f.TimeSec), fmt.Sprintf("no (%s)", metrics.Pct(f.ValAcc)))
		}
	}
	return t
}

// Table2 renders the experimental settings (Table II) for the scaled
// workloads, including the realized parameter counts.
func Table2() *metrics.Table {
	t := metrics.NewTable("Table II: experimental settings (CPU-scaled)",
		"Model", "Paper model", "# Params", "Batch", "LR", "Rounds")
	for _, w := range Workloads() {
		m := w.Factory(1)
		t.Add(w.Name, w.PaperName, fmt.Sprintf("%d", m.ParamCount()),
			fmt.Sprintf("%d", w.Batch), metrics.F(w.LR), fmt.Sprintf("%d", w.Rounds))
	}
	return t
}

// TrafficSummary reports the per-worker and server traffic of each run —
// the measured counterpart of the Table I cost model.
func TrafficSummary(results []*scenario.RunOutput) *metrics.Table {
	t := metrics.NewTable("Measured traffic after full run",
		"Algorithm", "Mean worker traffic (MB)", "Max worker traffic (MB)", "Server traffic (MB)", "Comm time (s)")
	for _, r := range results {
		t.Add(r.Algorithm,
			metrics.F(r.Ledger.MeanWorkerTrafficMB()),
			metrics.MB(r.Ledger.MaxWorkerTraffic()),
			metrics.MB(r.Ledger.ServerBytes()),
			metrics.F(r.Ledger.TotalTime()))
	}
	return t
}

// Fig1Table renders the embedded 14-city bandwidth matrix (Fig. 1) in MB/s
// after min-symmetrization.
func Fig1Table() *metrics.Table {
	bw := netsim.FourteenCities()
	headers := append([]string{"City"}, netsim.Cities...)
	t := metrics.NewTable("Fig. 1: 14-city link bandwidth (MB/s, min-symmetrized)", headers...)
	for i, c := range netsim.Cities {
		row := []string{c}
		for j := range netsim.Cities {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, metrics.F(bw.MBps(i, j)))
			}
		}
		t.Add(row...)
	}
	return t
}
