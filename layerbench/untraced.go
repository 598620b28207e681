package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"sapspsgd/internal/netsim"
	"sapspsgd/internal/profiling"
	"sapspsgd/internal/scenario"
)

// trial is one untraced execution of a workload through the public scenario
// entry points.
type trial struct {
	setup float64 // seconds from spec to first-round-ready
	loop  float64 // seconds in the round loop
	// roundMs holds each round's wall time; nil when the entry point runs
	// the loop itself (scenario.Spec.RunFull) and exposes only its total.
	roundMs []float64
	peakRSS int64 // bytes; the process watermark is reset first
	res     outcome
}

// runTrial executes one untraced trial. A panic inside the program is
// reported as an error so it counts as a failed trial.
func runTrial(s *scenario.Spec) (t trial, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Return the previous trial's heap to the OS so this trial's peak RSS
	// is its own.
	debug.FreeOSMemory()
	switch specMode(s) {
	case modeSync:
		return syncTrial(s)
	case modePlanner:
		return plannerTrial(s)
	}
	return asyncTrial(s)
}

// syncTrial builds the fleet with scenario.Spec.Build and steps it round by
// round against a netsim ledger, timing each round. It is RunFull's
// synchronous loop for specs without a time-varying environment (loadSpec
// rejects those), with per-round timing added.
func syncTrial(s *scenario.Spec) (trial, error) {
	var t trial
	profiling.ResetPeakRSS()
	start := time.Now()
	alg, bw, err := s.Build(0)
	if err != nil {
		return t, err
	}
	if c, ok := alg.(interface{ Close() }); ok {
		defer c.Close()
	}
	led := netsim.NewLedger(bw)
	t.setup = since(start)
	t.roundMs = make([]float64, 0, s.Rounds)
	var loss float64
	loopStart := time.Now()
	for r := 0; r < s.Rounds; r++ {
		rs := time.Now()
		loss = alg.Step(r, led)
		t.roundMs = append(t.roundMs, float64(time.Since(rs).Nanoseconds())/1e6)
	}
	t.loop = since(loopStart)
	t.peakRSS = profiling.PeakRSS()
	t.res = ledgerOutcome(led, s.Nodes, loss)
	return t, nil
}

// plannerTrial runs RunFull's planner-only loop round by round. RunFull
// exposes only its loop total, so the loop is assembled here from the same
// public constructors (plannerFleet, untraced); the package test pins it to
// RunFull bit for bit.
func plannerTrial(s *scenario.Spec) (trial, error) {
	var t trial
	profiling.ResetPeakRSS()
	start := time.Now()
	p := newPlannerFleet(s, nil, &setupTimes{})
	t.setup = since(start)
	t.roundMs = make([]float64, 0, s.Rounds)
	loopStart := time.Now()
	for r := 0; r < s.Rounds; r++ {
		rs := time.Now()
		p.round(r)
		t.roundMs = append(t.roundMs, float64(time.Since(rs).Nanoseconds())/1e6)
	}
	t.loop = since(loopStart)
	t.peakRSS = profiling.PeakRSS()
	t.res = ledgerOutcome(p.led, s.Nodes, 0)
	return t, nil
}

// asyncTrial runs the spec through scenario.Spec.RunFull, the public entry
// point for async specs. RunFull times its own loop, so set-up is the call's
// wall time minus the loop's, and it resets and reads the peak-RSS watermark
// itself.
func asyncTrial(s *scenario.Spec) (trial, error) {
	var t trial
	start := time.Now()
	out, err := s.RunFull(scenario.RunOptions{})
	if err != nil {
		return t, err
	}
	elapsed := since(start)
	r := out.Result
	t.loop = r.WallSeconds
	t.setup = elapsed - r.WallSeconds
	t.peakRSS = r.PeakRSSBytes
	t.res = asyncOutcome(r.TotalBytes, r.SimSeconds, r.FinalLoss, out.SentBytes, out.RecvBytes)
	return t, nil
}
