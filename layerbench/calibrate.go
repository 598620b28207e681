package main

import (
	"time"

	"sapspsgd/internal/dataset"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
)

// calibration is the single-worker baseline of a training workload: one
// model of the workload's shape trained alone on the workload's batches,
// with the public nn calls timed separately. Values are per-batch medians
// in microseconds.
type calibration struct {
	forwardUs, backwardUs, sgdUs float64
	batches                      int
}

const (
	calibrationWarmup  = 20
	calibrationBatches = 300
)

// calibrate times nn.Model.Forward, nn.Model.Backward and nn.SGD.Step on the
// workload's model and batch shape. Planner-only workloads have no model and
// return zeros.
func calibrate(s *scenario.Spec) calibration {
	if specMode(s) == modePlanner {
		return calibration{}
	}
	task, _ := dataset.TinyTask(s.Data.Samples, s.Data.Classes, s.Seed)
	model := nn.NewMLP(task.Dim(), s.Model.Hidden, s.Data.Classes, s.Seed)
	opt := &nn.SGD{LR: s.LR}
	loader := dataset.NewLoader(task, s.Batch, s.Seed)
	fwd := make([]float64, 0, calibrationBatches)
	bwd := make([]float64, 0, calibrationBatches)
	sgd := make([]float64, 0, calibrationBatches)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i := 0; i < calibrationWarmup+calibrationBatches; i++ {
		xs, ys := loader.Next()
		x := nn.BatchMatrix(xs)
		model.ZeroGrads()
		t0 := time.Now()
		logits := model.Forward(x, true)
		t1 := time.Now()
		_, dl := nn.SoftmaxCrossEntropy(logits, ys)
		t2 := time.Now()
		model.Backward(dl)
		t3 := time.Now()
		opt.Step(model)
		t4 := time.Now()
		if i >= calibrationWarmup {
			fwd = append(fwd, us(t1.Sub(t0)))
			bwd = append(bwd, us(t3.Sub(t2)))
			sgd = append(sgd, us(t4.Sub(t3)))
		}
	}
	return calibration{forwardUs: median(fwd), backwardUs: median(bwd), sgdUs: median(sgd), batches: calibrationBatches}
}
