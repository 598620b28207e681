package graph

import (
	"math"
	"sort"

	"sapspsgd/internal/rng"
)

// WeightedEdge is an undirected edge with a weight (bandwidth, in this
// repository's use).
type WeightedEdge struct {
	U, V   int
	Weight float64
}

// GreedyWeightedMatching returns a maximal matching built by scanning edges
// in descending weight order — a 1/2-approximation of the maximum weight
// matching, good enough for bandwidth preference and cheap.
//
// When rnd is nil the scan order is exact descending weight (deterministic).
// With rnd, two randomizations are applied so that *every* candidate edge
// has positive selection probability across rounds — without this, a purely
// deterministic weight order can lock consecutive rounds into alternating
// between two fixed matchings whose union is disconnected, making the second
// eigenvalue of E[WᵀW] exactly 1 and breaking Assumption 3 (the repository's
// spectral tests reproduce this failure mode):
//
//  1. weights are compared by ~25% buckets, with ties in shuffled order, and
//  2. each edge is skipped with small probability on the first pass
//     (reconsidered afterwards, so the seed matching stays maximal).
func GreedyWeightedMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	sorted := make([]WeightedEdge, len(edges))
	copy(sorted, edges)
	if rnd != nil {
		rnd.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
		sort.SliceStable(sorted, func(i, j int) bool {
			return weightBucket(sorted[i].Weight) > weightBucket(sorted[j].Weight)
		})
	} else {
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	}

	m := make(Matching, n)
	for i := range m {
		m[i] = -1
	}
	const skipProb = 0.1
	var skipped []WeightedEdge
	take := func(e WeightedEdge) {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return
		}
		if m[e.U] == -1 && m[e.V] == -1 {
			m[e.U] = e.V
			m[e.V] = e.U
		}
	}
	for _, e := range sorted {
		if rnd != nil && rnd.Float64() < skipProb {
			skipped = append(skipped, e)
			continue
		}
		take(e)
	}
	for _, e := range skipped {
		take(e)
	}
	return m
}

// weightBucket maps a weight onto a coarse logarithmic scale (~25% bands):
// weights in the same band count as equal for sorting, so their relative
// order is randomized by the pre-shuffle. It is defined for every float64:
// non-positive weights and NaN share the lowest bucket and +Inf has the top
// one, so buckets span [minBucket, maxBucket] (about 6.5k values).
func weightBucket(w float64) int {
	switch {
	case !(w > 0):
		return minBucket
	case math.IsInf(w, 1):
		return maxBucket
	}
	return logBucket(w)
}

func logBucket(w float64) int { return int(math.Floor(math.Log(w) / math.Log(1.25))) }

var (
	minBucket = logBucket(math.SmallestNonzeroFloat64) - 1
	maxBucket = logBucket(math.MaxFloat64) + 1
)

// BandwidthAwareMaximumMatching computes a maximum cardinality matching that
// prefers high-weight edges: a greedy weighted matching seeds the solution,
// then Edmonds augmentation completes it to maximum cardinality (never
// un-matching a seeded vertex). This realizes the paper's "maximum match
// using the filtered bandwidth matrix B*" with its bandwidth preference.
// The candidate list must be duplicate-free (every caller enumerates each
// link once), which lets the graph build map-free in O(E).
func BandwidthAwareMaximumMatching(n int, edges []WeightedEdge, rnd *rng.Source) Matching {
	g := NewFromEdges(n, edges)
	seed := GreedyWeightedMatching(n, edges, rnd)
	return AugmentToMaximum(g, seed, rnd)
}

// MatchingWeight sums the weights of matched pairs under the weight lookup.
func MatchingWeight(m Matching, weight func(u, v int) float64) float64 {
	total := 0.0
	for v, p := range m {
		if p > v {
			total += weight(v, p)
		}
	}
	return total
}

// MinMatchedWeight returns the minimum edge weight used by the matching, or 0
// if the matching is empty. The slowest matched link bounds the round time in
// synchronous gossip.
func MinMatchedWeight(m Matching, weight func(u, v int) float64) float64 {
	first := true
	minW := 0.0
	for v, p := range m {
		if p > v {
			w := weight(v, p)
			if first || w < minW {
				minW = w
				first = false
			}
		}
	}
	return minW
}
