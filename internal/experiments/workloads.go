// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §5 for the index). Workloads are
// CPU-scaled versions of the paper's three tasks (Table II): the model
// architectures are the paper's, at reduced width and input size, trained on
// the synthetic datasets that substitute for MNIST/CIFAR-10 (DESIGN.md §2).
package experiments

import (
	"fmt"
	"sort"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
)

// Workload is one evaluation task: model family + dataset + optimization
// hyperparameters (the rows of Table II, CPU-scaled).
type Workload struct {
	Name string
	// PaperName is the corresponding Table II row.
	PaperName string
	In        nn.Shape
	Classes   int
	// Factory builds the (identically initialized) model.
	Factory func(seed uint64) *nn.Model
	// TrainSamples/ValidSamples size the synthetic dataset.
	TrainSamples, ValidSamples int
	DataSeed                   uint64
	LR                         float64
	Batch                      int
	Rounds                     int
	// TargetAcc is the Table IV "reach target accuracy" threshold, scaled
	// to the synthetic task.
	TargetAcc float64
	// Ratios overrides the paper's compression settings when non-zero
	// (useful for tiny test models where N/c would round to nothing).
	Ratios Ratios
}

// Ratios bundles the per-algorithm compression ratios of §IV-A.
type Ratios struct {
	TopK float64 // TopK-PSGD (paper: 1000)
	SFed float64 // S-FedAvg (paper: 100)
	DCD  float64 // DCD-PSGD (paper: 4)
	SAPS float64 // SAPS-PSGD (paper: 100)
}

// PaperRatios returns §IV-A's settings.
func PaperRatios() Ratios { return Ratios{TopK: TopKC, SFed: SFedC, DCD: DCDC, SAPS: SAPSC} }

// ratios returns the workload's ratios, defaulting to the paper's.
func (w Workload) ratios() Ratios {
	r := w.Ratios
	if r.TopK == 0 {
		r.TopK = TopKC
	}
	if r.SFed == 0 {
		r.SFed = SFedC
	}
	if r.DCD == 0 {
		r.DCD = DCDC
	}
	if r.SAPS == 0 {
		r.SAPS = SAPSC
	}
	return r
}

// WithRounds returns the workload with its round budget replaced (for quick
// benches vs full runs).
func (w Workload) WithRounds(rounds int) Workload {
	w.Rounds = rounds
	return w
}

// MNISTWorkload is the scaled MNIST-CNN task (paper: MNIST-CNN, 6.6M params,
// batch 50, LR 0.05, 100 epochs).
func MNISTWorkload() Workload {
	in := nn.Shape{C: 1, H: 16, W: 16}
	return Workload{
		Name:      "mnist-cnn-scaled",
		PaperName: "MNIST-CNN",
		In:        in,
		Classes:   10,
		Factory: func(seed uint64) *nn.Model {
			return nn.NewMNISTCNN(in, 10, 0.25, seed)
		},
		TrainSamples: 2048,
		ValidSamples: 512,
		DataSeed:     11,
		LR:           0.05,
		Batch:        16,
		Rounds:       240,
		TargetAcc:    0.90,
	}
}

// CIFARWorkload is the scaled CIFAR10-CNN task (paper: CIFAR10-CNN, 7.0M
// params, batch 100, LR 0.04, 320 epochs).
func CIFARWorkload() Workload {
	in := nn.Shape{C: 3, H: 16, W: 16}
	return Workload{
		Name:      "cifar10-cnn-scaled",
		PaperName: "CIFAR10-CNN",
		In:        in,
		Classes:   10,
		Factory: func(seed uint64) *nn.Model {
			return nn.NewCIFARCNN(in, 10, 0.25, seed)
		},
		TrainSamples: 2048,
		ValidSamples: 512,
		DataSeed:     13,
		LR:           0.04,
		Batch:        16,
		Rounds:       280,
		TargetAcc:    0.80,
	}
}

// ResNetWorkload is the scaled ResNet task (paper: ResNet-20, 270k params,
// batch 64, LR 0.1, 160 epochs). The scaled model is ResNet-8 at half width
// — same block structure, CPU-trainable.
func ResNetWorkload() Workload {
	in := nn.Shape{C: 3, H: 16, W: 16}
	return Workload{
		Name:      "resnet-scaled",
		PaperName: "ResNet-20",
		In:        in,
		Classes:   10,
		Factory: func(seed uint64) *nn.Model {
			return nn.NewResNet(in, 10, 1, 0.5, seed)
		},
		TrainSamples: 2048,
		ValidSamples: 512,
		DataSeed:     17,
		LR:           0.1,
		Batch:        16,
		// The ResNet needs the longest horizon: single-peer masked gossip
		// takes ~c rounds to touch every coordinate once, and BatchNorm
		// statistics drift amplifies early disagreement (the paper's
		// "requires some iterations to achieve the consensus").
		Rounds:    420,
		TargetAcc: 0.80,
	}
}

// Workloads returns the three evaluation tasks in paper order.
func Workloads() []Workload {
	return []Workload{MNISTWorkload(), CIFARWorkload(), ResNetWorkload()}
}

// Dataset materializes the workload's synthetic train/valid splits.
func (w Workload) Dataset() (tr, va *dataset.Dataset) {
	cfg := dataset.SynthConfig{
		Name: w.Name, C: w.In.C, H: w.In.H, W: w.In.W,
		Classes: w.Classes, PerClass: 2, Noise: 0.4,
	}
	full := dataset.Synthetic(cfg, w.TrainSamples+w.ValidSamples, w.DataSeed)
	tr = &dataset.Dataset{Name: full.Name, C: full.C, H: full.H, W: full.W, Classes: full.Classes, Samples: full.Samples[:w.TrainSamples]}
	va = &dataset.Dataset{Name: full.Name + "-valid", C: full.C, H: full.H, W: full.W, Classes: full.Classes, Samples: full.Samples[w.TrainSamples:]}
	return tr, va
}

// AlgorithmNames lists the seven algorithms of the paper's comparison, in
// the paper's order.
var AlgorithmNames = []string{
	"PSGD", "TopK-PSGD", "FedAvg", "S-FedAvg", "D-PSGD", "DCD-PSGD", "SAPS-PSGD",
}

// Paper compression settings (§IV-A): TopK c=1000, S-FedAvg c=100, DCD c=4,
// SAPS c=100. The scaled models are ~100k params, so the paper's ratios
// carry over unchanged.
const (
	TopKC   = 1000
	SFedC   = 100
	DCDC    = 4
	SAPSC   = 100
	FedFrac = 0.5
	// FedLocalSteps is the number of local minibatch steps per FedAvg
	// round (one scaled local epoch).
	FedLocalSteps = 4
)

// BuildAlgorithm constructs one of the named algorithms over the workload's
// fleet with IID shards.
func BuildAlgorithm(name string, w Workload, n int, bw *netsim.Bandwidth, seed uint64) (algos.Algorithm, error) {
	return buildAlgorithm(name, w, n, bw, seed, false, 1)
}

// BuildAlgorithmSharded additionally selects the data partition: IID or
// label-sharded non-IID (two label shards per worker).
func BuildAlgorithmSharded(name string, w Workload, n int, bw *netsim.Bandwidth, seed uint64, nonIID bool) (algos.Algorithm, error) {
	return buildAlgorithm(name, w, n, bw, seed, nonIID, 1)
}

// fleetConfig is the workload's n-worker fleet: IID shards, or two label
// shards per worker when nonIID is set.
func (w Workload) fleetConfig(n int, seed uint64, nonIID bool) algos.FleetConfig {
	tr, _ := w.Dataset()
	var shards []*dataset.Dataset
	if nonIID {
		shards = dataset.PartitionByLabel(tr, n, 2, seed)
	} else {
		shards = dataset.PartitionIID(tr, n, seed)
	}
	return algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return w.Factory(seed) },
		Shards:  shards,
		LR:      w.LR,
		Batch:   w.Batch,
		Seed:    seed,
	}
}

// buildAlgorithm constructs the named algorithm; localSteps is the number of
// local SGD steps per SAPS communication round (the local-steps ablation's
// axis; every other caller passes 1).
func buildAlgorithm(name string, w Workload, n int, bw *netsim.Bandwidth, seed uint64, nonIID bool, localSteps int) (algos.Algorithm, error) {
	fc := w.fleetConfig(n, seed, nonIID)
	ratios := w.ratios()
	sapsCfg := core.Config{
		Workers:     n,
		Compression: ratios.SAPS,
		LR:          w.LR,
		Batch:       w.Batch,
		LocalSteps:  localSteps,
		Gossip:      defaultGossipConfig(bw),
		Seed:        seed,
	}
	switch name {
	case "PSGD":
		return algos.NewPSGD(fc), nil
	case "TopK-PSGD":
		return algos.NewTopKPSGD(fc, ratios.TopK), nil
	case "FedAvg":
		return algos.NewFedAvg(fc, bw, FedFrac, FedLocalSteps), nil
	case "S-FedAvg":
		return algos.NewSFedAvg(fc, bw, FedFrac, FedLocalSteps, ratios.SFed), nil
	case "D-PSGD":
		return algos.NewDPSGD(fc), nil
	case "DCD-PSGD":
		return algos.NewDCDPSGD(fc, ratios.DCD), nil
	case "SAPS-PSGD":
		return algos.NewSAPS(fc, bw, sapsCfg), nil
	case "RandomChoose":
		return algos.NewRandomChoose(fc, bw, sapsCfg), nil
	case "PS-PSGD":
		return algos.NewPSPSGD(fc, bw), nil
	case "QSGD-PSGD":
		return algos.NewQSGDPSGD(fc, 4), nil
	case "SAPS-PSGD(churn)":
		return algos.NewSAPSChurn(fc, bw, sapsCfg, algos.ChurnModel{
			LeaveProb: 0.1, JoinProb: 0.5, MinActive: max(2, n/2),
		}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// defaultGossipConfig is the Algorithm 3 configuration the experiment suite
// uses: 60th-percentile bandwidth threshold, 10-round recency window.
func defaultGossipConfig(bw *netsim.Bandwidth) gossip.Config {
	return gossip.Config{BThres: bandwidthThreshold(bw), TThres: 10}
}

// bandwidthThreshold picks B_thres as the 60th percentile of link
// bandwidths: high enough to prefer fast links, low enough that B* stays
// usable.
func bandwidthThreshold(bw *netsim.Bandwidth) float64 {
	var all []float64
	for i := 0; i < bw.N; i++ {
		for j := i + 1; j < bw.N; j++ {
			all = append(all, bw.MBps(i, j))
		}
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	return all[int(0.6*float64(len(all)))]
}

// Env32 returns the paper's 32-worker random environment ((0,5] MB/s).
func Env32(seed uint64) *netsim.Bandwidth {
	return netsim.RandomUniform(32, 0, 5, rng.New(seed))
}

// EnvN returns an n-worker random environment for scaled runs.
func EnvN(n int, seed uint64) *netsim.Bandwidth {
	return netsim.RandomUniform(n, 0, 5, rng.New(seed))
}
