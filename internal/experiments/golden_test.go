//go:build linux && amd64 && !amd64.v3

// Golden oracle for the paper-experiment drivers: fixed digests of the
// quick convergence suite's evaluation series and ledgers, and of the
// rendered ablation tables, recorded once and compared on every run. A
// change to how runs are stepped, evaluated or accounted that moves any
// number by one bit fails here.
//
// The digests pin exact float64 bits (evaluation sums are sensitive to
// fused multiply-adds), so the file only builds where the recording was
// made: linux/amd64 at GOAMD64 below v3, as in internal/algos.
package experiments

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"sapspsgd/internal/metrics"
	"sapspsgd/internal/netsim"
)

// goldenExperimentDigests maps each golden experiment to its recorded
// digest.
var goldenExperimentDigests = map[string]uint64{
	"convergence":    0xe41d25f4223b6047,
	"compression":    0x43fedf0a7ec4d676,
	"peer-selection": 0x39ffcbf35010218a,
	"local-steps":    0x7132c4a6d8b75237,
	"topology":       0xd30dbc3a178069c6,
}

func TestGoldenExperiments(t *testing.T) {
	got := map[string]uint64{}

	suite := ConvergenceSuite{Workload: quickWorkload(), N: 4, Seed: 7, EvalEvery: 15}
	results, err := suite.Run()
	if err != nil {
		t.Fatal(err)
	}
	got["convergence"] = digestRuns(t, results, suite.N)

	w := quickWorkload().WithRounds(20)
	tables := map[string]func() (*metrics.Table, error){
		"compression":    func() (*metrics.Table, error) { return CompressionSweep(w, 4, []float64{2, 8}, 7) },
		"peer-selection": func() (*metrics.Table, error) { return PeerSelectionAblation(w, 4, 7) },
		"local-steps":    func() (*metrics.Table, error) { return LocalStepsSweep(w, 4, []int{1, 2, 4}, 7) },
		"topology":       func() (*metrics.Table, error) { return TopologyAblation(w, 4, 7) },
	}
	for name, build := range tables {
		tb, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sb strings.Builder
		tb.WriteMarkdown(&sb)
		h := fnv.New64a()
		h.Write([]byte(sb.String()))
		got[name] = h.Sum64()
	}

	for name, want := range goldenExperimentDigests {
		if got[name] != want {
			t.Errorf("%s: digest %#016x, recorded %#016x", name, got[name], want)
		}
	}
}

// digestRuns folds every run's evaluation records (Round and the bits of
// TrainLoss, ValLoss, ValAcc, TrafficMB, TimeSec) and its final ledger
// (each worker's sent/received bytes, the server bytes and TotalTime) into
// an FNV-64a hash. A run is read by shape — its one slice of evaluation
// records and its *netsim.Ledger field — so the digest depends only on the
// recorded numbers, not on the name of the type that carries them.
func digestRuns(t *testing.T, runs any, workers int) uint64 {
	t.Helper()
	h := fnv.New64a()
	ledgerType := reflect.TypeOf((*netsim.Ledger)(nil))
	rv := reflect.ValueOf(runs)
	for i := 0; i < rv.Len(); i++ {
		run := reflect.Indirect(rv.Index(i))
		var evals []reflect.Value
		var led *netsim.Ledger
		for f := 0; f < run.NumField(); f++ {
			fv := run.Field(f)
			switch {
			case fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Struct:
				evals = append(evals, fv)
			case fv.Type() == ledgerType:
				led = fv.Interface().(*netsim.Ledger)
			}
		}
		if len(evals) != 1 || led == nil {
			t.Fatalf("run %d: want one record slice and a ledger, found %d slices, ledger %v", i, len(evals), led != nil)
		}
		for j := 0; j < evals[0].Len(); j++ {
			rec := evals[0].Index(j)
			writeGoldenU64(h, uint64(rec.FieldByName("Round").Int()))
			for _, name := range []string{"TrainLoss", "ValLoss", "ValAcc", "TrafficMB", "TimeSec"} {
				writeGoldenU64(h, math.Float64bits(rec.FieldByName(name).Float()))
			}
		}
		for w := 0; w < workers; w++ {
			s, r := led.WorkerBytes(w)
			writeGoldenU64(h, uint64(s))
			writeGoldenU64(h, uint64(r))
		}
		writeGoldenU64(h, uint64(led.ServerBytes()))
		writeGoldenU64(h, math.Float64bits(led.TotalTime()))
	}
	return h.Sum64()
}

func writeGoldenU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
