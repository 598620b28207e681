package main

import (
	"embed"
	"fmt"
	"math"

	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/scenario"
)

// The workload specs are ordinary scenario files, embedded so the binary
// does not depend on the directory it runs from. Their seed field is always
// replaced by the benchmark's -seed argument.
//
//go:embed workloads/*.json
var specFS embed.FS

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"saps-train", "saps-plan-10k", "topk-gather", "adpsgd-async"}

// mode is how a spec executes, which decides both the untraced entry point
// and the traced assembly.
type mode int

const (
	modeSync    mode = iota // synchronous rounds on the sharded engine
	modePlanner             // planner_only: coordinator, mask and ledger only
	modeAsync               // engine.NewAsync over the netsim event queue
)

func specMode(s *scenario.Spec) mode {
	switch {
	case s.PlannerOnly:
		return modePlanner
	case s.Async != nil:
		return modeAsync
	}
	return modeSync
}

// warmupRounds is how many leading rounds of every trial run untimed: they
// execute and count towards the outcome, but not towards rounds_per_s,
// round_ms_p50 or the per-round layer medians.
//
//   - Synchronous rounds: round 0 fills the engine's pooled per-round
//     scratch and the codecs' buffers.
//   - Planner-only rounds: rounds t ≤ TThres−2 are Algorithm 3's start-up
//     regime, in which the recency window is not yet full. Its cost depends
//     on the environment (whether the B*-filtered graph has a perfect
//     matching) and differs up to 2.5× between seeds. From round TThres−1
//     on, every round runs the connectivity-constrained planner the
//     workload exists to measure.
//   - The async engine runs once, with no rounds to skip.
func warmupRounds(s *scenario.Spec) int {
	switch specMode(s) {
	case modeAsync:
		return 0
	case modePlanner:
		return gossipConfig(s).TThres - 1
	}
	return 1
}

// loadSpec returns the named workload's spec with its seed set to seed.
func loadSpec(name string, seed uint64) (*scenario.Spec, error) {
	data, err := specFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	s.Seed = seed
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := traceable(s); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if w := warmupRounds(s); s.Rounds <= w {
		return nil, fmt.Errorf("workload %s: %d rounds leave none after %d warm-up rounds", name, s.Rounds, w)
	}
	return s, nil
}

// traceable rejects spec features the traced assembly does not rebuild, so
// a spec edit cannot silently make the two runs measure different programs.
func traceable(s *scenario.Spec) error {
	switch {
	case s.Bandwidth.Jitter > 0, s.Trace != nil, s.Churn != nil, s.Faults != nil, s.Straggler != nil:
		return fmt.Errorf("time-varying environments, churn, faults and stragglers are not traced")
	case s.Partition != nil && s.Partition.Kind != "iid":
		return fmt.Errorf("only IID partitions are traced")
	case s.RecordTrace:
		return fmt.Errorf("record_trace is not traced")
	case s.Algo == "ps-psgd" || s.Algo == "fedavg" || s.Algo == "s-fedavg":
		return fmt.Errorf("hub algorithms are not traced")
	case specMode(s) == modeSync && (s.Shards < 1 || s.Shards > procs):
		return fmt.Errorf("synchronous workloads run on the sharded runtime with 1 to %d shards", procs)
	}
	return nil
}

// localSteps mirrors the scenario default: 0 means one local step.
func localSteps(s *scenario.Spec) int {
	if s.LocalSteps < 1 {
		return 1
	}
	return s.LocalSteps
}

// gossipConfig mirrors the scenario default Algorithm 3 thresholds.
func gossipConfig(s *scenario.Spec) gossip.Config {
	if s.Gossip == nil {
		return gossip.Config{BThres: 0, TThres: 10}
	}
	return gossip.Config{BThres: s.Gossip.BThres, TThres: s.Gossip.TThres}
}

// outcome is what a run computes, as opposed to how fast: the paper's
// outcomes. Two runs of the same program on the same seed must agree on it
// bit for bit.
type outcome struct {
	wireBytes  int64
	simSeconds float64
	finalLoss  float64
	// conserved is the ledger's byte-conservation invariant.
	conserved bool
}

// sameAs reports whether two outcomes are bitwise equal.
func (o outcome) sameAs(p outcome) bool {
	return o.wireBytes == p.wireBytes &&
		math.Float64bits(o.simSeconds) == math.Float64bits(p.simSeconds) &&
		math.Float64bits(o.finalLoss) == math.Float64bits(p.finalLoss)
}

func (o outcome) String() string {
	return fmt.Sprintf("wire %d B, sim %v s, loss %v", o.wireBytes, o.simSeconds, o.finalLoss)
}

// fleetBytes is the repository's fleet-traffic convention: every endpoint's
// sent plus received bytes, server included.
func fleetBytes(led *netsim.Ledger, nodes int) int64 {
	var total int64
	for w := 0; w < nodes; w++ {
		snt, rcv := led.WorkerBytes(w)
		total += snt + rcv
	}
	return total + led.ServerBytes()
}

// ledgerOutcome reads a finished netsim ledger.
func ledgerOutcome(led *netsim.Ledger, nodes int, loss float64) outcome {
	return outcome{
		wireBytes:  fleetBytes(led, nodes),
		simSeconds: led.TotalTime(),
		finalLoss:  loss,
		conserved:  led.ConservationOK(),
	}
}

// asyncOutcome reads a finished async run; its per-rank byte ledgers
// conserve when every byte sent was received.
func asyncOutcome(total int64, sim, loss float64, sent, recv []int64) outcome {
	var s, r int64
	for i := range sent {
		s += sent[i]
		r += recv[i]
	}
	return outcome{wireBytes: total, simSeconds: sim, finalLoss: loss, conserved: s == r}
}
