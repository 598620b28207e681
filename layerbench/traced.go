package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"sapspsgd/internal/algos"
	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/dataset"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/nn"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/scenario"
)

// setupTimes splits the traced run's set-up by layer, in seconds.
type setupTimes struct {
	dataset float64 // synthetic task and IID partition
	env     float64 // bandwidth environment (scenario.Spec.Env)
	fleet   float64 // models, workers and nodes
	engine  float64 // codecs, transport, planner and runtime
}

// tracedRun is one traced execution: the same fleet as the untraced trial,
// assembled from public layer constructors with every layer call wrapped in
// a timing decorator.
type tracedRun struct {
	tr     *tracer
	res    outcome
	loop   float64 // seconds in the round loop
	setup  setupTimes
	shards int // executor goroutines of the sharded runtime (0 when none)

	// Algorithm 3 diagnostics (SAPS only).
	forced  int
	matched []float64 // per-round mean matched-link bandwidth, MB/s

	// Encoded wire bytes against the dense bytes they encode.
	wire, dense int64
	// events is the async engine's processed event count.
	events int
}

// runTraced executes the traced run of s.
func runTraced(s *scenario.Spec) (run *tracedRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Start from the same heap state as every untraced trial, so
	// trace.overhead_share compares like with like.
	debug.FreeOSMemory()
	switch specMode(s) {
	case modePlanner:
		return tracedPlannerOnly(s)
	case modeAsync:
		return tracedAsync(s)
	}
	return tracedSync(s)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// buildData is the dataset layer: scenario.Spec's synthetic task, split IID.
func buildData(s *scenario.Spec, st *setupTimes) (*dataset.Dataset, []*dataset.Dataset) {
	t := time.Now()
	tr, _ := dataset.TinyTask(s.Data.Samples, s.Data.Classes, s.Seed)
	shards := dataset.PartitionIID(tr, s.Nodes, s.Seed)
	st.dataset = since(t)
	return tr, shards
}

// buildEnv is the netsim layer's bandwidth environment.
func buildEnv(s *scenario.Spec, st *setupTimes) *netsim.Bandwidth {
	t := time.Now()
	bw := s.Env()
	st.env = since(t)
	return bw
}

// recipe is the algos recipe the scenario layer derives from a spec.
func recipe(s *scenario.Spec) algos.Recipe {
	return algos.Recipe{
		Algo:        s.Algo,
		Workers:     s.Nodes,
		LR:          s.LR,
		Batch:       s.Batch,
		Seed:        s.Seed,
		Compression: s.Compression,
		LocalSteps:  localSteps(s),
		C:           s.C,
		Levels:      s.Levels,
		Fraction:    s.Fraction,
	}
}

// sapsConfig is the SAPS worker and coordinator configuration of s.
func sapsConfig(s *scenario.Spec) core.Config {
	return core.Config{
		Workers:     s.Nodes,
		Compression: s.Compression,
		LR:          s.LR,
		Batch:       s.Batch,
		LocalSteps:  localSteps(s),
		Gossip:      gossipConfig(s),
		Seed:        s.Seed,
	}
}

// tracedSync rebuilds a synchronous workload on the sharded engine: traced
// nodes and codecs, a traced memtransport hub, and a Driver whose planner,
// control and ledger are traced.
func tracedSync(s *scenario.Spec) (*tracedRun, error) {
	run := &tracedRun{shards: min(s.Shards, s.Nodes)}
	saps := s.Algo == "saps"
	n := s.Nodes
	tr := newTracer(n)
	run.tr = tr
	task, parts := buildData(s, &run.setup)
	bw := buildEnv(s, &run.setup)

	t := time.Now()
	nodes := make([]engine.Node, n)
	codecs := make([]engine.Codec, n)
	models := make([]*nn.Model, n)
	for i := range models {
		models[i] = nn.NewMLP(task.Dim(), s.Model.Hidden, s.Data.Classes, s.Seed)
	}
	var (
		planner engine.Planner
		pattern engine.Pattern
	)
	if saps {
		// One mask cache for the whole fleet, shared by every worker and
		// codec — what engine.New's Workers form does for the untraced run.
		cfg := sapsConfig(s)
		masks := &compress.MaskCache{}
		for i := range nodes {
			w := core.NewWorker(i, models[i], parts[i], cfg)
			w.ShareMasks(masks)
			nodes[i] = wrapNode(engine.NewMaskedGossipNode(w), i, tr)
			codecs[i] = engine.NewMaskedShared(w.CompressionRatio(), masks)
		}
		run.setup.fleet = since(t)
		t = time.Now()
		planner = core.NewCoordinator(bw, cfg)
		pattern = engine.Pairwise{}
	} else {
		rec := recipe(s)
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		for i := range nodes {
			nodes[i] = wrapNode(rec.NewNode(i, models[i], parts[i], nil), i, tr)
		}
		run.setup.fleet = since(t)
		t = time.Now()
		codecs = rec.Codecs(models[0].ParamCount())
		planner = rec.Planner(bw, gossipConfig(s))
		pattern = rec.Pattern()
	}
	for i, c := range codecs {
		codecs[i] = wrapCodec(c, tr)
	}
	tp := &tracedPlanner{inner: planner, tr: tr}
	eng := engine.New(engine.Options{
		Nodes:     nodes,
		Codecs:    codecs,
		Pattern:   pattern,
		Planner:   tp,
		Transport: wrapTransport(memtransport.NewHub(n), tr),
		Shards:    s.Shards,
	})
	defer eng.Close()
	// The engine's own Step is Driver.Round over the engine as Control; a
	// Driver built here does the same with the control call traced.
	drv := engine.Driver{Planner: tp, Control: &tracedControl{inner: eng, tr: tr}}
	led := netsim.NewLedger(bw)
	tl := &tracedLedger{inner: led, tr: tr}
	run.setup.engine = since(t)

	var loss float64
	loopStart := time.Now()
	for r := 0; r < s.Rounds; r++ {
		tr.round = int32(r)
		start := tr.now()
		st, err := drv.Round(r, tl)
		tr.coordSpan(kRound, int32(r), start)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		loss = st.Loss
		if saps {
			run.notePlan(st.Plan, bw)
		}
	}
	run.loop = since(loopStart)
	run.res = ledgerOutcome(led, n, loss)
	run.addCodecBytes(codecs)
	return run, nil
}

// addCodecBytes sums the traced codecs' wire and dense byte counters.
func (run *tracedRun) addCodecBytes(codecs []engine.Codec) {
	for _, c := range codecs {
		b := c.(countedCodec).counters()
		run.wire += b.wire
		run.dense += b.dense
	}
}

// notePlan records a SAPS plan's Algorithm 3 diagnostics, outside any span.
func (run *tracedRun) notePlan(p core.RoundPlan, bw *netsim.Bandwidth) {
	if p.Forced {
		run.forced++
	}
	run.matched = append(run.matched, gossip.MeanMatchedBandwidth(p.Matching(), bw))
}

// plannerFleet is the planner-only path of scenario.Spec.RunFull assembled
// from the same public constructors: Algorithm 3, the shared round mask's
// byte count, and one ledger charge per matched pair, with no model, data or
// workers. The untraced trial runs it with a nil tracer; the traced run
// passes a tracer, which wraps the planner and ledger.
type plannerFleet struct {
	s       *scenario.Spec
	bw      *netsim.Bandwidth
	planner engine.Planner
	led     *netsim.Ledger
	charge  engine.Ledger // led, or its traced decorator
	dim     int
	mask    []bool
	tr      *tracer
}

func newPlannerFleet(s *scenario.Spec, tr *tracer, st *setupTimes) *plannerFleet {
	bw := buildEnv(s, st)
	t := time.Now()
	p := &plannerFleet{
		s:       s,
		bw:      bw,
		planner: core.NewCoordinator(bw, sapsConfig(s)),
		led:     netsim.NewLedger(bw),
		// The mask dimension is the MLP's parameter count; no model is
		// built.
		dim: nn.MLPParamCount(dataset.TinyInputDim, s.Model.Hidden, s.Data.Classes),
		tr:  tr,
	}
	p.charge = p.led
	if tr != nil {
		p.planner = &tracedPlanner{inner: p.planner, tr: tr}
		p.charge = &tracedLedger{inner: p.led, tr: tr}
	}
	st.engine = since(t)
	return p
}

// round runs planner-only round r and returns its plan and the masked
// payload size each matched endpoint sends.
func (p *plannerFleet) round(r int) (core.RoundPlan, int64) {
	plan := p.planner.Plan(r)
	ms := p.tr.now()
	p.mask = compress.MaskInto(p.mask, plan.Seed, r, p.dim, p.s.Compression)
	payload := compress.MaskedBytes(compress.CountOnes(p.mask))
	p.tr.coordSpan(kMask, int32(r), ms)
	for v, q := range plan.Peer {
		if q > v {
			p.charge.Exchange(v, q, payload, payload)
		}
	}
	p.charge.EndRound()
	return plan, payload
}

// tracedPlannerOnly is the traced run of a planner-only workload.
func tracedPlannerOnly(s *scenario.Spec) (*tracedRun, error) {
	run := &tracedRun{}
	tr := newTracer(0)
	run.tr = tr
	p := newPlannerFleet(s, tr, &run.setup)
	loopStart := time.Now()
	for r := 0; r < s.Rounds; r++ {
		tr.round = int32(r)
		start := tr.now()
		plan, payload := p.round(r)
		tr.coordSpan(kRound, int32(r), start)
		run.notePlan(plan, p.bw)
		run.wire += payload
		run.dense += compress.DenseBytes(p.dim)
	}
	run.loop = since(loopStart)
	run.res = ledgerOutcome(p.led, s.Nodes, 0)
	return run, nil
}

// tracedAsync rebuilds the async path of scenario.Spec.RunFull: the algos
// async fleet with traced nodes and codecs on engine.NewAsync, with an event
// log attached to count the events the engine processes.
func tracedAsync(s *scenario.Spec) (*tracedRun, error) {
	run := &tracedRun{}
	n := s.Nodes
	tr := newTracer(n)
	run.tr = tr
	task, parts := buildData(s, &run.setup)
	bw := buildEnv(s, &run.setup)

	t := time.Now()
	rec := recipe(s)
	af := algos.NewAsyncFleet(algos.FleetConfig{
		N:       n,
		Factory: func() *nn.Model { return nn.NewMLP(task.Dim(), s.Model.Hidden, s.Data.Classes, s.Seed) },
		Shards:  parts,
		LR:      s.LR,
		Batch:   s.Batch,
		Seed:    s.Seed,
	}, rec)
	run.setup.fleet = since(t)

	t = time.Now()
	nodes := make([]engine.AsyncNode, n)
	codecs := make([]engine.Codec, n)
	for i := range nodes {
		nodes[i] = wrapNode(af.Nodes[i], i, tr).(engine.AsyncNode)
		codecs[i] = wrapCodec(af.Codecs[i], tr)
	}
	a := s.Async
	var slow []int
	if a.SlowFraction > 0 {
		// The straggler draw of scenario's async path.
		k := int(math.Ceil(a.SlowFraction * float64(n)))
		slow = append([]int(nil), rng.New(s.Seed).Derive(0xa51c).Perm(n)[:k]...)
	}
	events := &netsim.EventLog{}
	eng, err := engine.NewAsync(engine.AsyncOptions{
		Nodes:     nodes,
		Codecs:    codecs,
		Bandwidth: bw,
		Seed:      s.Seed,
		Steps:     s.Rounds,
		OneWay:    rec.OneWay(),
		Compute: engine.AsyncComputeModel{
			MeanSeconds: a.ComputeSeconds,
			Jitter:      a.Jitter,
			SlowFactor:  a.SlowFactor,
			SlowRanks:   slow,
		},
		SampleEvery: a.SampleEvery,
		Sink:        events,
	})
	if err != nil {
		return nil, err
	}
	run.setup.engine = since(t)

	loopStart := time.Now()
	start := tr.now()
	res, err := eng.Run()
	tr.coordSpan(kAsyncRun, -1, start)
	run.loop = since(loopStart)
	if err != nil {
		return nil, err
	}
	run.events = events.Len()
	run.res = asyncOutcome(res.TotalBytes, res.FinalTime, res.FinalLoss, res.SentBytes, res.RecvBytes)
	run.addCodecBytes(codecs)
	return run, nil
}
