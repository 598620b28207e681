package main

import (
	"math"
	"sort"

	"sapspsgd/internal/scenario"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// unattributedSlack bounds trace.unattributed_share: the plan, run_round and
// ledger spans (plus the mask span on the planner-only path) must cover all
// but this share of the traced round wall.
const unattributedSlack = 0.05

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedMs returns a trial's timed round walls in milliseconds and their
// sum in seconds. Trials that expose no per-round walls (async) time their
// whole loop as rounds equal parts.
func timedMs(s *scenario.Spec, t trial) (rounds []float64, total float64, n int) {
	if t.roundMs == nil {
		return nil, t.loop, s.Rounds
	}
	rounds = t.roundMs[warmupRounds(s):]
	return rounds, sum(rounds) / 1000, len(rounds)
}

// endToEnd computes the user-visible metrics from the untraced trials.
func endToEnd(s *scenario.Spec, trials []trial) (ms []metric, roundSamples int) {
	var setups, rss, perRound, trialMeans []float64
	rounds, timed := 0, 0.0
	for _, t := range trials {
		setups = append(setups, t.setup)
		rss = append(rss, float64(t.peakRSS)/1e6)
		rs, total, n := timedMs(s, t)
		perRound = append(perRound, rs...)
		trialMeans = append(trialMeans, 1000*total/float64(n))
		rounds += n
		timed += total
	}
	roundMs := median(perRound)
	roundSamples = len(perRound)
	if roundSamples == 0 {
		// RunFull exposes only the loop total: the per-round time is each
		// trial's mean, and the median is over trials.
		roundMs = median(trialMeans)
		roundSamples = len(trialMeans)
	}
	return []metric{
		{"setup_s", "s", median(setups)},
		{"rounds_per_s", "rounds/s", ratio(float64(rounds), timed)},
		{"round_ms_p50", "ms", roundMs},
		{"peak_rss_mb", "MB", median(rss)},
	}, roundSamples
}

// roundAgg sums one round's spans by layer, in nanoseconds.
type roundAgg struct {
	wall, plan, runRound, ledger, mask float64
	compute, encode, decode, merge     float64
	transport, busy                    float64
	charges, msgs                      int
}

// perLayer computes the layer metrics from the traced run; per-round values
// cover the timed rounds only. untracedTimed is the median untraced timed
// wall in seconds, the base of the tracing overhead.
func perLayer(s *scenario.Spec, run *tracedRun, untracedTimed float64, cal calibration) (ms []metric, unattributed float64) {
	warm := warmupRounds(s)
	aggs := make([]roundAgg, s.Rounds)
	var rankTotal, asyncRun float64
	for _, sp := range run.tr.all() {
		d := float64(sp.dur())
		if sp.rank >= 0 {
			rankTotal += d
		}
		if sp.kind == kAsyncRun {
			asyncRun += d
		}
		if int(sp.round) < warm || int(sp.round) >= len(aggs) {
			continue
		}
		a := &aggs[sp.round]
		if sp.rank >= 0 {
			a.busy += d
		}
		switch sp.kind {
		case kRound:
			a.wall += d
		case kPlan:
			a.plan += d
		case kRunRound:
			a.runRound += d
		case kCharge:
			a.ledger += d
			a.charges++
		case kEndRound:
			a.ledger += d
		case kMask:
			a.mask += d
		case kCompute:
			a.compute += d
		case kEncode:
			a.encode += d
		case kDecode:
			a.decode += d
		case kMerge:
			a.merge += d
		case kSend:
			a.msgs++
		case kRecv:
			a.transport += d
		case kExchange:
			a.transport += d
			a.msgs++
		}
	}
	aggs = aggs[warm:]
	perRoundMs := func(f func(a roundAgg) float64) float64 {
		xs := make([]float64, len(aggs))
		for i, a := range aggs {
			xs[i] = f(a) / 1e6
		}
		return median(xs)
	}
	perRoundCount := func(f func(a roundAgg) int) float64 {
		xs := make([]float64, len(aggs))
		for i, a := range aggs {
			xs[i] = float64(f(a))
		}
		return median(xs)
	}
	var wall, plan, attributed, capacity, busy float64
	for _, a := range aggs {
		wall += a.wall
		plan += a.plan
		attributed += a.plan + a.runRound + a.ledger + a.mask
		capacity += float64(run.shards) * a.runRound
		busy += a.busy
	}
	unattributed = ratio(wall-attributed, wall)
	idle, selfShare, eventsPerS := 0.0, 0.0, 0.0
	if run.shards > 0 {
		idle = ratio(capacity-busy, capacity)
	}
	if specMode(s) == modeAsync {
		// The async engine is one goroutine: its own share is the Run wall
		// not spent inside node or codec calls.
		selfShare = ratio(asyncRun-rankTotal, asyncRun)
		eventsPerS = ratio(float64(run.events), asyncRun/1e9)
		unattributed = ratio(run.loop*1e9-asyncRun, run.loop*1e9)
	}
	forced, matched := 0.0, 0.0
	if s.Algo == "saps" {
		forced = float64(run.forced) / float64(s.Rounds)
		matched = sum(run.matched) / float64(len(run.matched))
	}
	tracedTimed := wall / 1e9
	if specMode(s) == modeAsync {
		tracedTimed = run.loop
	}
	overhead := ratio(tracedTimed, untracedTimed) - 1
	return []metric{
		{"wire_mb", "MB", float64(run.res.wireBytes) / 1e6},
		{"sim_comm_s", "sim_s", run.res.simSeconds},
		{"final_loss", "loss", run.res.finalLoss},
		{"core.plan_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.plan })},
		{"core.plan_share", "ratio", ratio(plan, wall)},
		{"gossip.forced_share", "ratio", forced},
		{"gossip.matched_mbps", "MB/s", matched},
		{"nn.compute_cpu_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.compute })},
		{"nn.forward_us", "us", cal.forwardUs},
		{"nn.backward_us", "us", cal.backwardUs},
		{"nn.sgd_us", "us", cal.sgdUs},
		{"engine.encode_cpu_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.encode })},
		{"engine.decode_cpu_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.decode })},
		{"engine.wire_density", "ratio", ratio(float64(run.wire), float64(run.dense))},
		{"engine.merge_cpu_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.merge })},
		{"engine.idle_share", "ratio", idle},
		{"memtransport.recv_wait_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.transport })},
		{"memtransport.msgs_per_round", "count", perRoundCount(func(a roundAgg) int { return a.msgs })},
		{"netsim.ledger_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.ledger })},
		{"netsim.charges_per_round", "count", perRoundCount(func(a roundAgg) int { return a.charges })},
		{"compress.mask_ms", "ms", perRoundMs(func(a roundAgg) float64 { return a.mask })},
		{"engine.async_self_share", "ratio", selfShare},
		{"engine.async_events_per_s", "1/s", eventsPerS},
		{"dataset.setup_s", "s", run.setup.dataset},
		{"netsim.env_setup_s", "s", run.setup.env},
		{"nn.fleet_setup_s", "s", run.setup.fleet},
		{"engine.setup_s", "s", run.setup.engine},
		{"trace.overhead_share", "ratio", overhead},
		{"trace.unattributed_share", "ratio", unattributed},
	}, unattributed
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
