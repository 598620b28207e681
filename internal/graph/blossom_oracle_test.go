package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"sapspsgd/internal/rng"
)

// oracleGraph builds a graph rich in blossoms: random odd cycles (lengths
// 3, 5, 7) over overlapping vertex sets — cycles sharing vertices or joined
// by chords nest blossoms inside blossoms — plus random chords and pendant
// edges.
func oracleGraph(r *rng.Source) *Graph {
	n := 1 + r.Intn(48)
	g := New(n)
	for c := r.Intn(1 + n/2); c > 0; c-- {
		k := 3 + 2*r.Intn(3)
		if k > n {
			break
		}
		cyc := r.Perm(n)[:k]
		for i := range cyc {
			g.AddEdge(cyc[i], cyc[(i+1)%k])
		}
	}
	p := 0.02 + 0.1*r.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(p) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// oracleInitial returns a random valid (not necessarily maximal) matching
// on g, or nil.
func oracleInitial(g *Graph, r *rng.Source) Matching {
	if r.Bernoulli(0.25) {
		return nil
	}
	m := make(Matching, g.N)
	for i := range m {
		m[i] = -1
	}
	keep := r.Float64()
	for _, e := range g.Edges() {
		if m[e[0]] == -1 && m[e[1]] == -1 && r.Bernoulli(keep) {
			m[e[0]], m[e[1]] = e[1], e[0]
		}
	}
	return m
}

// agreesWithReference runs both solvers on the same input — with rnd nil,
// or with two sources seeded alike — and reports the first difference.
func agreesWithReference(g *Graph, initial Matching, randomized bool, seed uint64) error {
	var r1, r2 *rng.Source
	if randomized {
		r1, r2 = rng.New(seed), rng.New(seed)
	}
	want := referenceAugmentToMaximum(g, slices.Clone(initial), r1)
	got := AugmentToMaximum(g, slices.Clone(initial), r2)
	if !slices.Equal(got, want) {
		return fmt.Errorf("matching differs from the reference solver:\n got  %v\n want %v", got, want)
	}
	if !got.Valid(g.N) {
		return fmt.Errorf("invalid matching %v", got)
	}
	for v, p := range initial {
		if p != -1 && got[v] == -1 {
			return fmt.Errorf("initially matched vertex %d exposed", v)
		}
	}
	if randomized && r1.Uint64() != r2.Uint64() {
		return fmt.Errorf("solvers consumed different numbers of random draws")
	}
	return nil
}

func TestAugmentToMaximumMatchesReference(t *testing.T) {
	f := func(seed uint64, randomized bool) bool {
		r := rng.New(seed)
		g := oracleGraph(r)
		if err := agreesWithReference(g, oracleInitial(g, r), randomized, seed); err != nil {
			t.Logf("seed %d randomized %v: %v", seed, randomized, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAugmentToMaximum decodes an arbitrary graph (byte pairs are edges
// modulo n) and an initial matching (edge i is taken when bit i of pick is
// set and both ends are free), and requires the solver to agree with the
// reference element for element. Its seed corpus (blossoms, nested
// blossoms, Petersen, K6) is committed under testdata/fuzz.
func FuzzAugmentToMaximum(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, edgeBytes []byte, pick uint64, randomized bool) {
		nv := 1 + int(n%64)
		g := New(nv)
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			g.AddEdge(int(edgeBytes[i])%nv, int(edgeBytes[i+1])%nv)
		}
		var initial Matching
		if pick != 0 {
			initial = make(Matching, nv)
			for i := range initial {
				initial[i] = -1
			}
			for i, e := range g.Edges() {
				if pick>>(i%64)&1 == 1 && initial[e[0]] == -1 && initial[e[1]] == -1 {
					initial[e[0]], initial[e[1]] = e[1], e[0]
				}
			}
		}
		if err := agreesWithReference(g, initial, randomized, pick); err != nil {
			t.Fatal(err)
		}
	})
}
