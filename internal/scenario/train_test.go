package scenario

import (
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

func trainSetup(t *testing.T, n int) (algos.FleetConfig, *netsim.Bandwidth, *dataset.Dataset) {
	t.Helper()
	tr, va := dataset.TinyTask(400, 4, 31)
	shards := dataset.PartitionIID(tr, n, 1)
	fc := algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(tr.Dim(), []int{16}, 4, 5) },
		Shards:  shards,
		LR:      0.1,
		Batch:   16,
		Seed:    3,
	}
	return fc, netsim.RandomUniform(n, 1, 5, rng.New(7)), va
}

func TestRunProducesMonotoneSeries(t *testing.T) {
	const n = 6
	fc, bw, va := trainSetup(t, n)
	cfg := core.Config{
		Workers: n, Compression: 4, LR: 0.1, Batch: 16, LocalSteps: 1,
		Gossip: gossip.Config{BThres: 2, TThres: 5}, Seed: 3,
	}
	res := Train(algos.NewSAPS(fc, bw, cfg), bw, 120, RunOptions{EvalEvery: 20, Valid: va})
	if res.Algorithm != "SAPS-PSGD" {
		t.Fatalf("Algorithm = %q", res.Algorithm)
	}
	if len(res.Evals) != 6 {
		t.Fatalf("got %d records, want 6", len(res.Evals))
	}
	prevTraffic, prevTime := -1.0, -1.0
	for _, r := range res.Evals {
		if r.TrafficMB < prevTraffic || r.TimeSec < prevTime {
			t.Fatalf("traffic/time not monotone: %+v", r)
		}
		prevTraffic, prevTime = r.TrafficMB, r.TimeSec
	}
	final := res.Final()
	if final.Round != 120 {
		t.Fatalf("final round %d", final.Round)
	}
	if final.ValAcc < 0.6 {
		t.Fatalf("final accuracy %v too low", final.ValAcc)
	}
	if !res.Ledger.ConservationOK() {
		t.Fatal("ledger conservation")
	}
}

func TestFirstReaching(t *testing.T) {
	res := &RunOutput{Evals: []Eval{
		{Round: 10, ValAcc: 0.3, TrafficMB: 1},
		{Round: 20, ValAcc: 0.7, TrafficMB: 2},
		{Round: 30, ValAcc: 0.9, TrafficMB: 3},
	}}
	rec, ok := res.FirstReaching(0.65)
	if !ok || rec.Round != 20 {
		t.Fatalf("FirstReaching = %+v, %v", rec, ok)
	}
	if _, ok := res.FirstReaching(0.99); ok {
		t.Fatal("should not reach 0.99")
	}
}

func TestEvalMeanRestoresHostParams(t *testing.T) {
	fc, _, va := trainSetup(t, 3)
	f := algos.NewFleet(fc)
	before := f.Models[0].FlatParams(nil)
	// Make models differ so the mean is distinct from model 0.
	p1 := f.Models[1].FlatParams(nil)
	for i := range p1 {
		p1[i] += 1
	}
	f.Models[1].SetFlatParams(p1)
	evalMean(f.Models, va)
	after := f.Models[0].FlatParams(nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("evalMean did not restore host parameters")
		}
	}
}

func TestEmptyModelsEval(t *testing.T) {
	loss, acc := evalMean(nil, nil)
	if loss != 0 || acc != 0 {
		t.Fatal("empty eval should be zero")
	}
}
