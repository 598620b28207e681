package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/scenario"
)

// exchangeOnly is a transport without the phased extension.
type exchangeOnly struct{}

func (exchangeOnly) Exchange(_, _, _ int, p []float64) ([]float64, error) { return p, nil }

func implements[I any](v any) bool {
	_, ok := v.(I)
	return ok
}

// TestDecoratorsKeepOptionalInterfaces fails when a decorator drops (or
// invents) an optional interface the engine type-asserts: the engine would
// then silently fall back to the blocking pool or an allocating decode.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer(4)
	codecs := map[string]engine.Codec{
		"dense":   engine.Dense{},
		"masked":  engine.NewMasked(10),
		"topk":    engine.NewTopK(4, 40, true),
		"randomk": engine.NewRandomK(4, 1),
		"qsgd":    engine.NewQSGDCodec(4, 1),
	}
	for name, c := range codecs {
		if got, want := implements[engine.DecoderInto](wrapCodec(c, tr)), implements[engine.DecoderInto](c); got != want {
			t.Errorf("codec %s: wrapped DecoderInto %v, inner %v", name, got, want)
		}
	}
	transports := map[string]engine.Transport{"hub": memtransport.NewHub(4), "exchange-only": exchangeOnly{}}
	for name, x := range transports {
		if got, want := implements[engine.PhasedTransport](wrapTransport(x, tr)), implements[engine.PhasedTransport](x); got != want {
			t.Errorf("transport %s: wrapped PhasedTransport %v, inner %v", name, got, want)
		}
	}
	if !implements[engine.PhasedTransport](memtransport.NewHub(2)) {
		t.Fatal("memtransport.Hub no longer implements engine.PhasedTransport")
	}

	task, _ := dataset.TinyTask(64, 2, 1)
	parts := dataset.PartitionIID(task, 2, 1)
	model := func() *nn.Model { return nn.NewMLP(task.Dim(), []int{4}, 2, 1) }
	fc := algos.FleetConfig{N: 2, Factory: model, Shards: parts, LR: 0.1, Batch: 4, Seed: 1}
	af := algos.NewAsyncFleet(fc, algos.Recipe{Algo: "adpsgd", Workers: 2, LR: 0.1, Batch: 4, Seed: 1})
	saps := engine.NewMaskedGossipNode(core.NewWorker(0, model(), parts[0], core.DefaultConfig(2)))
	nodes := map[string]engine.Node{"adpsgd": af.Nodes[0], "saps": saps}
	for name, n := range nodes {
		if got, want := implements[engine.AsyncNode](wrapNode(n, 0, tr)), implements[engine.AsyncNode](n); got != want {
			t.Errorf("node %s: wrapped AsyncNode %v, inner %v", name, got, want)
		}
	}
}

// smallSpec shrinks a workload so a test can run it in a second or two,
// keeping its algorithm, mode and knobs.
func smallSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	s, err := loadSpec(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	switch specMode(s) {
	case modePlanner:
		s.Nodes = 400
		s.Rounds = warmupRounds(s) + 3
	case modeAsync:
		s.Nodes, s.Rounds, s.Data.Samples = 16, 12, 512
	default:
		s.Nodes, s.Rounds, s.Data.Samples = 16, 4, 1024
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTracedRunMatchesUntraced checks, on a small version of every
// workload, that the traced assembly computes bit for bit what the untraced
// entry point computes, that synchronous fleets run on the sharded runtime
// (phased Send/Recv, never the blocking Exchange), and that the spans
// account for the round.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s := smallSpec(t, name)
			tri, err := runTrial(s)
			if err != nil {
				t.Fatal(err)
			}
			run, err := runTraced(s)
			if err != nil {
				t.Fatal(err)
			}
			if !run.res.sameAs(tri.res) {
				t.Fatalf("traced %v, untraced %v", run.res, tri.res)
			}
			if !run.res.conserved || !tri.res.conserved {
				t.Fatal("ledger does not conserve bytes")
			}
			counts := map[kind]int{}
			for _, sp := range run.tr.all() {
				counts[sp.kind]++
				if sp.end < sp.start {
					t.Fatalf("span %s ends before it starts", kindNames[sp.kind])
				}
			}
			switch specMode(s) {
			case modeSync:
				if counts[kExchange] != 0 || counts[kSend] == 0 || counts[kRecv] == 0 {
					t.Fatalf("engine left the sharded runtime: %d exchanges, %d sends, %d recvs", counts[kExchange], counts[kSend], counts[kRecv])
				}
				if counts[kCompute] != s.Nodes*s.Rounds {
					t.Fatalf("%d compute spans, want %d", counts[kCompute], s.Nodes*s.Rounds)
				}
			case modeAsync:
				if counts[kSnapshot] == 0 || run.events == 0 {
					t.Fatalf("async run recorded %d snapshots and %d events", counts[kSnapshot], run.events)
				}
			case modePlanner:
				if counts[kMask] != s.Rounds || counts[kPlan] != s.Rounds {
					t.Fatalf("%d mask and %d plan spans for %d rounds", counts[kMask], counts[kPlan], s.Rounds)
				}
			}
			layers, unattributed := perLayer(s, run, 1, calibration{})
			if math.Abs(unattributed) > unattributedSlack {
				t.Fatalf("unattributed share %v outside ±%v", unattributed, unattributedSlack)
			}
			for _, m := range layers {
				if !finite(m.value) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
		})
	}
}

// TestUntracedMatchesRunFull pins the untraced loops that time rounds
// themselves to scenario.Spec.RunFull, the repository's own entry point.
func TestUntracedMatchesRunFull(t *testing.T) {
	for _, name := range []string{"saps-train", "saps-plan-10k", "topk-gather"} {
		t.Run(name, func(t *testing.T) {
			s := smallSpec(t, name)
			tri, err := runTrial(s)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.RunFull(scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := outcome{wireBytes: out.Result.TotalBytes, simSeconds: out.Result.SimSeconds, finalLoss: out.Result.FinalLoss}
			if !tri.res.sameAs(want) {
				t.Fatalf("untraced trial %v, RunFull %v", tri.res, want)
			}
		})
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json at the repository root
// against the workloads and metrics this command reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloadNames[i])
		}
	}
	s := smallSpec(t, "saps-train")
	tri, err := runTrial(s)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runTraced(s)
	if err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd(s, []trial{tri})
	layers, _ := perLayer(s, run, 1, calibration{})
	compare := func(what string, file []entry, got []metric) {
		if len(file) != len(got) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(file), len(got))
		}
		for i, m := range got {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], reported %s [%s]", what, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
			if file[i].Better != "higher" && file[i].Better != "lower" {
				t.Errorf("%s: better %q", m.name, file[i].Better)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, e2e)
	compare("per_layer", b.PerLayer, layers)
}
