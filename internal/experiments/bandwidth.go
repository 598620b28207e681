package experiments

import (
	"io"

	"sapspsgd/internal/gossip"
	"sapspsgd/internal/metrics"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
)

// BandwidthUtilization reproduces Fig. 5: the per-iteration mean matched
// bandwidth of SAPS-PSGD's adaptive peer selection versus a uniformly random
// maximum matching and the static ring used by D-PSGD/DCD-PSGD. The ring
// series is a constant; for random environments the paper averages it over
// 5000 independently drawn bandwidth matrices, reproduced by ringAverage.
type BandwidthUtilization struct {
	BW    *netsim.Bandwidth
	Iters int
	Seed  uint64
	// Cfg defaults to BThres = 60th-percentile bandwidth, TThres = 10.
	Cfg gossip.Config
	// RingSamples is the number of random matrices to average for the ring
	// baseline (0 means use the environment's own ring bandwidth).
	RingSamples int
	// RingLo, RingHi bound the random matrices' bandwidths (used only when
	// RingSamples > 0).
	RingLo, RingHi float64
}

// Run returns the per-iteration bandwidth series, keyed by algorithm name.
// D-PSGD and DCD-PSGD share the ring series (identical topology).
func (b BandwidthUtilization) Run() map[string][]float64 {
	cfg := b.Cfg
	if cfg.TThres == 0 {
		cfg = gossip.Config{BThres: bandwidthThreshold(b.BW), TThres: 10}
	}
	gen := gossip.NewGenerator(b.BW, cfg, b.Seed)
	rnd := rng.New(b.Seed).Derive(0xf15)

	ring := gossip.RingMeanBandwidth(b.BW)
	if b.RingSamples > 0 {
		ring = b.ringAverage()
	}

	out := map[string][]float64{
		"SAPS-PSGD":    make([]float64, b.Iters),
		"RandomChoose": make([]float64, b.Iters),
		"D-PSGD":       make([]float64, b.Iters),
		"DCD-PSGD":     make([]float64, b.Iters),
	}
	for t := 0; t < b.Iters; t++ {
		out["SAPS-PSGD"][t] = gossip.MeanMatchedBandwidth(gen.Next(t).Match, b.BW)
		out["RandomChoose"][t] = gossip.MeanMatchedBandwidth(gossip.RandomMatching(b.BW.N, rnd), b.BW)
		out["D-PSGD"][t] = ring
		out["DCD-PSGD"][t] = ring
	}
	return out
}

// ringAverage reproduces the paper's 5000-matrix average for the ring
// topology in random environments: draw fresh uniform bandwidth matrices and
// take the mean ring bandwidth along the canonical order 1→2→…→n→1.
func (b BandwidthUtilization) ringAverage() float64 {
	r := rng.New(b.Seed).Derive(0x5000)
	total := 0.0
	for s := 0; s < b.RingSamples; s++ {
		env := netsim.RandomUniform(b.BW.N, b.RingLo, b.RingHi, r.Derive(uint64(s)))
		total += gossip.RingMeanBandwidth(env)
	}
	return total / float64(b.RingSamples)
}

// WriteFig5 renders the bandwidth-utilization series as CSV.
func WriteFig5(w io.Writer, series map[string][]float64) {
	names := []string{"D-PSGD", "DCD-PSGD", "SAPS-PSGD", "RandomChoose"}
	metrics.Series(w, names, series)
}

// Fig5Fourteen runs the 14-city environment of Fig. 5(a).
func Fig5Fourteen(iters int, seed uint64) map[string][]float64 {
	return BandwidthUtilization{BW: netsim.FourteenCities(), Iters: iters, Seed: seed}.Run()
}

// Fig5ThirtyTwo runs the 32-worker random environment of Fig. 5(b)
// (bandwidths uniform in (0, 5] MB/s, ring averaged over 5000 matrices).
func Fig5ThirtyTwo(iters int, seed uint64) map[string][]float64 {
	return BandwidthUtilization{
		BW:          Env32(seed),
		Iters:       iters,
		Seed:        seed,
		RingSamples: 5000,
		RingLo:      0,
		RingHi:      5,
	}.Run()
}

// MeanOf returns the mean of a series (the Fig. 5 summary statistic; see
// DESIGN.md §5).
func MeanOf(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total / float64(len(s))
}
