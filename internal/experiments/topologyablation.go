package experiments

import (
	"fmt"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/metrics"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
	"sapspsgd/internal/spectral"
	"sapspsgd/internal/topology"
)

// TopologyAblation compares D-PSGD across static topologies and SAPS-PSGD's
// dynamic matching on one workload: spectral gap, per-worker traffic, final
// accuracy, and simulated communication time. It quantifies the §II-C
// trade-off — more neighbors mix faster but cost proportionally more — and
// shows where single-peer sparsified gossip sits on that frontier.
func TopologyAblation(w Workload, n int, seed uint64) (*metrics.Table, error) {
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("experiments: topology ablation needs a power-of-two n for the hypercube, got %d", n)
	}
	d := 0
	for v := n; v > 1; v >>= 1 {
		d++
	}
	tops := []topology.Topology{
		topology.Ring(n),
		topology.Hypercube(d),
		topology.RandomRegular(n, 3, rng.New(seed)),
	}

	t := metrics.NewTable(
		fmt.Sprintf("Topology ablation (%s, %d workers, %d rounds)", w.Name, n, w.Rounds),
		"Variant", "ρ(W)", "Final accuracy", "Traffic (MB/worker)", "Comm time (s)")

	bw := EnvN(n, seed)
	_, valid := w.Dataset()
	opts := scenario.RunOptions{EvalEvery: w.Rounds / 4, Valid: valid}
	for _, tp := range tops {
		rho := spectral.SecondLargestEigenvalue(topology.MetropolisW(tp), 500)
		alg := algos.NewDPSGDTopology(w.fleetConfig(n, seed, false), tp)
		f := scenario.Train(alg, bw, w.Rounds, opts).Final()
		t.Add(alg.Name(), metrics.F(rho), metrics.Pct(f.ValAcc), metrics.F(f.TrafficMB), metrics.F(f.TimeSec))
	}

	// SAPS for reference: its "topology" is the dynamic matching; report the
	// measured ρ of its sampled gossip matrices instead.
	saps, err := BuildAlgorithm("SAPS-PSGD", w, n, bw, seed)
	if err != nil {
		return nil, err
	}
	diag := DiagnoseGossip(bw, defaultGossipConfig(bw), 1/w.ratios().SAPS, 100, seed)
	f := scenario.Train(saps, bw, w.Rounds, opts).Final()
	t.Add("SAPS-PSGD (dynamic)", metrics.F(diag.Rho), metrics.Pct(f.ValAcc), metrics.F(f.TrafficMB), metrics.F(f.TimeSec))
	return t, nil
}
