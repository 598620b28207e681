package graph

import (
	"slices"

	"sapspsgd/internal/rng"
)

// Matching maps each vertex to its partner, or -1 if unmatched. It always has
// length N of the graph it was computed on.
type Matching []int

// Size returns the number of matched pairs.
func (m Matching) Size() int {
	n := 0
	for v, p := range m {
		if p > v {
			n++
		}
	}
	return n
}

// Pairs returns the matched pairs with u < v, sorted by u.
func (m Matching) Pairs() [][2]int {
	out := make([][2]int, 0, len(m)/2)
	for v, p := range m {
		if p > v {
			out = append(out, [2]int{v, p})
		}
	}
	return out
}

// Valid reports whether m is a consistent matching on a graph with n
// vertices: symmetric and within range.
func (m Matching) Valid(n int) bool {
	if len(m) != n {
		return false
	}
	for v, p := range m {
		if p == -1 {
			continue
		}
		if p < 0 || p >= n || p == v || m[p] != v {
			return false
		}
	}
	return true
}

// blossomSolver implements Edmonds' maximum cardinality matching for general
// graphs. A BFS alternating tree is grown from each unmatched root, and odd
// cycles (blossoms) are contracted implicitly by re-basing vertices.
//
// Its cost follows the work a search does, not the graph size. A search
// records the vertices it touches and resets only those before the next
// one, and the LCA and path marks are epoch stamps, never cleared. Each
// blossom base heads a circular member list (next), so a contraction
// relabels only the members of the bases it marks: O(path + members) plus
// sorting the vertices it makes even. A search therefore costs O(touched
// vertices + their edges + contraction work), and a full augmentation sums
// that over the searches instead of paying O(V) per search and per blossom.
//
// Invariant that keeps the result bit-identical to the O(V)-scan
// formulation: the vertices a contraction makes even join the BFS queue in
// ascending vertex index, the order a scan over 0..N-1 would produce. The
// same augmenting paths are then found in the same order.
type blossomSolver struct {
	adj    [][]int
	match  []int
	parent []int
	base   []int
	// next links the members of each blossom into a circular list through
	// its base; a vertex outside any blossom is a one-element list.
	next []int
	used []bool
	// dirty flags the vertices whose state differs from the reset state;
	// touched lists them for the next search's reset.
	dirty   []bool
	touched []int
	queue   []int
	// lcaMark and inPath hold epoch stamps: a vertex is marked iff its
	// entry equals epoch, which advances once per contraction.
	lcaMark []int
	inPath  []int
	epoch   int
	marked  []int // bases marked by the current contraction
	fresh   []int // vertices the current contraction makes even
}

// newBlossomSolver returns a solver over adj with an empty matching and
// every vertex in the reset state.
func newBlossomSolver(adj [][]int) *blossomSolver {
	n := len(adj)
	// The returned matching is its own allocation; the working arrays share
	// one, which becomes garbage with the solver.
	ints := make([]int, 5*n)
	bools := make([]bool, 2*n)
	s := &blossomSolver{
		adj:     adj,
		match:   make([]int, n),
		parent:  ints[0*n : 1*n],
		base:    ints[1*n : 2*n],
		next:    ints[2*n : 3*n],
		lcaMark: ints[3*n : 4*n],
		inPath:  ints[4*n : 5*n],
		used:    bools[:n],
		dirty:   bools[n:],
	}
	for i := 0; i < n; i++ {
		s.match[i] = -1
		s.parent[i] = -1
		s.base[i] = i
		s.next[i] = i
	}
	return s
}

// MaximumMatching computes a maximum cardinality matching of g using Edmonds'
// blossom algorithm. If rnd is non-nil, the vertex processing order and the
// neighbor iteration order are randomized — this is the paper's
// RandomlyMaxMatch ("by randomly starting from different node in a graph").
// The result is deterministic for a given rnd state.
func MaximumMatching(g *Graph, rnd *rng.Source) Matching {
	return AugmentToMaximum(g, nil, rnd)
}

// AugmentToMaximum grows an initial matching (nil means empty) to a maximum
// cardinality matching; vertices matched in the initial matching remain
// matched (augmenting paths only flip partners, never expose a vertex). This
// is how the bandwidth-greedy seed matching is completed to a perfect-as-
// possible matching without sacrificing its high-bandwidth pairs.
func AugmentToMaximum(g *Graph, initial Matching, rnd *rng.Source) Matching {
	n := g.N
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	adj := g.adj
	if rnd != nil {
		rnd.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Copy-and-shuffle adjacency so neighbor exploration order (and hence
		// tie-breaking among equal-cardinality matchings) is randomized. The
		// copies share one backing array.
		total := 0
		for _, a := range g.adj {
			total += len(a)
		}
		flat := make([]int, total)
		adj = make([][]int, n)
		for v, a := range g.adj {
			sh := flat[:len(a):len(a)]
			flat = flat[len(a):]
			copy(sh, a)
			rnd.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
			adj[v] = sh
		}
	}

	s := newBlossomSolver(adj)
	if initial != nil {
		copy(s.match, initial)
	}
	for _, v := range order {
		if s.match[v] == -1 {
			if end := s.findPath(v); end != -1 {
				s.augment(end)
			}
		}
	}
	return Matching(s.match)
}

// touch records that v's state is about to leave the reset state.
func (s *blossomSolver) touch(v int) {
	if !s.dirty[v] {
		s.dirty[v] = true
		s.touched = append(s.touched, v)
	}
}

// lca finds the lowest common ancestor of a and b in the alternating forest,
// walking via blossom bases.
func (s *blossomSolver) lca(a, b int) int {
	for {
		a = s.base[a]
		s.lcaMark[a] = s.epoch
		if s.match[a] == -1 {
			break
		}
		a = s.parent[s.match[a]]
	}
	for {
		b = s.base[b]
		if s.lcaMark[b] == s.epoch {
			return b
		}
		b = s.parent[s.match[b]]
	}
}

// mark stamps base b as on the current blossom's cycle, once.
func (s *blossomSolver) mark(b int) {
	if s.inPath[b] != s.epoch {
		s.inPath[b] = s.epoch
		s.marked = append(s.marked, b)
	}
}

// markPath marks all blossom bases on the path from v down to base b and
// rewires parents through child so the contracted blossom stays traversable.
func (s *blossomSolver) markPath(v, b, child int) {
	for s.base[v] != b {
		s.mark(s.base[v])
		s.mark(s.base[s.match[v]])
		s.touch(v)
		s.parent[v] = child
		child = s.match[v]
		v = s.parent[s.match[v]]
	}
}

// contract folds the odd cycle closed by the edge (v, to) into the blossom
// based at their LCA: the members of every marked base are relabeled and
// spliced into the LCA's member list, and those not yet even join the queue
// in ascending index.
func (s *blossomSolver) contract(v, to int) {
	s.epoch++
	curBase := s.lca(v, to)
	s.marked = s.marked[:0]
	s.markPath(v, curBase, to)
	s.markPath(to, curBase, v)
	s.fresh = s.fresh[:0]
	s.touch(curBase) // its member list grows
	for _, b := range s.marked {
		for i := b; ; {
			s.touch(i)
			s.base[i] = curBase
			if !s.used[i] {
				s.used[i] = true
				s.fresh = append(s.fresh, i)
			}
			if i = s.next[i]; i == b {
				break
			}
		}
		if b != curBase {
			s.next[b], s.next[curBase] = s.next[curBase], s.next[b]
		}
	}
	slices.Sort(s.fresh)
	s.queue = append(s.queue, s.fresh...)
}

// findPath grows a BFS alternating tree from root and returns the free vertex
// terminating an augmenting path, or -1 if none exists.
func (s *blossomSolver) findPath(root int) int {
	// Return the previous search's vertices to the reset state.
	for _, v := range s.touched {
		s.used[v] = false
		s.dirty[v] = false
		s.parent[v] = -1
		s.base[v] = v
		s.next[v] = v
	}
	s.touched = s.touched[:0]
	s.touch(root)
	s.used[root] = true
	s.queue = append(s.queue[:0], root)

	for qi := 0; qi < len(s.queue); qi++ {
		v := s.queue[qi]
		for _, to := range s.adj[v] {
			if s.base[v] == s.base[to] || s.match[v] == to {
				continue
			}
			if to == root || (s.match[to] != -1 && s.parent[s.match[to]] != -1) {
				s.contract(v, to)
			} else if s.parent[to] == -1 {
				s.touch(to)
				s.parent[to] = v
				if s.match[to] == -1 {
					return to
				}
				s.touch(s.match[to])
				s.used[s.match[to]] = true
				s.queue = append(s.queue, s.match[to])
			}
		}
	}
	return -1
}

// augment flips matched/unmatched edges along the found path ending at v.
func (s *blossomSolver) augment(v int) {
	for v != -1 {
		pv := s.parent[v]
		next := s.match[pv]
		s.match[v] = pv
		s.match[pv] = v
		v = next
	}
}
