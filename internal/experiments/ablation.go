package experiments

import (
	"fmt"

	"sapspsgd/internal/metrics"
	"sapspsgd/internal/scenario"
)

// CompressionSweep trains SAPS-PSGD at several compression ratios on one
// workload and tabulates the accuracy/traffic trade-off — the ablation
// behind the paper's choice of c = 100.
func CompressionSweep(w Workload, n int, ratios []float64, seed uint64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("SAPS-PSGD compression sweep (%s, %d workers, %d rounds)", w.Name, n, w.Rounds),
		"c", "Final accuracy", "Traffic (MB/worker)", "Comm time (s)")
	bw := EnvN(n, seed)
	_, valid := w.Dataset()
	for _, c := range ratios {
		wc := w
		wc.Ratios = w.ratios()
		wc.Ratios.SAPS = c
		alg, err := BuildAlgorithm("SAPS-PSGD", wc, n, bw, seed)
		if err != nil {
			return nil, err
		}
		f := scenario.Train(alg, bw, wc.Rounds, scenario.RunOptions{EvalEvery: wc.Rounds / 4, Valid: valid}).Final()
		t.Add(metrics.F(c), metrics.Pct(f.ValAcc), metrics.F(f.TrafficMB), metrics.F(f.TimeSec))
	}
	return t, nil
}

// PeerSelectionAblation compares adaptive, random and churned SAPS variants
// end to end on one environment.
func PeerSelectionAblation(w Workload, n int, seed uint64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Peer-selection ablation (%s, %d workers, %d rounds)", w.Name, n, w.Rounds),
		"Variant", "Final accuracy", "Traffic (MB/worker)", "Comm time (s)")
	bw := EnvN(n, seed)
	_, valid := w.Dataset()
	for _, name := range []string{"SAPS-PSGD", "RandomChoose", "SAPS-PSGD(churn)"} {
		alg, err := BuildAlgorithm(name, w, n, bw, seed)
		if err != nil {
			return nil, err
		}
		f := scenario.Train(alg, bw, w.Rounds, scenario.RunOptions{EvalEvery: w.Rounds / 4, Valid: valid}).Final()
		t.Add(name, metrics.Pct(f.ValAcc), metrics.F(f.TrafficMB), metrics.F(f.TimeSec))
	}
	return t, nil
}

// LocalStepsSweep varies the number of local SGD steps per communication
// round — an extension exploring the FedAvg-style local-update axis on top
// of SAPS's sparsified gossip.
func LocalStepsSweep(w Workload, n int, stepsList []int, seed uint64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("SAPS-PSGD local-steps sweep (%s, %d workers)", w.Name, n),
		"Local steps", "Rounds", "Final accuracy", "Traffic (MB/worker)")
	bw := EnvN(n, seed)
	_, valid := w.Dataset()
	for _, steps := range stepsList {
		if steps < 1 {
			return nil, fmt.Errorf("experiments: local steps %d", steps)
		}
		// Keep total gradient work constant: more local steps, fewer rounds.
		rounds := w.Rounds / steps
		if rounds < 1 {
			rounds = 1
		}
		alg, err := buildAlgorithm("SAPS-PSGD", w, n, bw, seed, false, steps)
		if err != nil {
			return nil, err
		}
		f := scenario.Train(alg, bw, rounds, scenario.RunOptions{EvalEvery: max(1, rounds/4), Valid: valid}).Final()
		t.Add(fmt.Sprintf("%d", steps), fmt.Sprintf("%d", rounds), metrics.Pct(f.ValAcc), metrics.F(f.TrafficMB))
	}
	return t, nil
}
