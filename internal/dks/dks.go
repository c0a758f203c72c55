// Package dks implements Densest/Heaviest k-Subgraph solvers: given an
// edge-weighted graph and a cardinality bound k, find k nodes whose induced
// subgraph has maximum total edge weight (DkS is the unit-weight special
// case of HkS).
//
// The paper's algorithm A_H^QK uses the state-of-the-art HkS heuristic of
// Konar & Sidiropoulos [41] as a black box with an O(1) empirical
// performance ratio (65–80% of optimal). This package provides a portfolio
// heuristic in that spirit — greedy peeling, greedy expansion, spectral
// rounding of the low-rank bilinear relaxation (in the style of
// Papailiopoulos et al. [53]), and swap-based local search — returning the
// best solution found. It also provides the exact tree DP the paper cites
// [44] and an exhaustive solver for validation.
package dks

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/guard"
	"repro/internal/heapq"
	"repro/internal/wgraph"
)

// Options tunes the portfolio heuristic. The zero value gives sensible
// defaults.
type Options struct {
	// Restarts is the number of extra randomized greedy-expansion starts
	// (default 4).
	Restarts int
	// LocalSearchRounds caps swap-improvement sweeps (default 12).
	LocalSearchRounds int
	// PowerIterations for the spectral candidate (default 60).
	PowerIterations int
	// Seed for the internal RNG (default 1).
	Seed int64
	// DisableSpectral skips the spectral candidate (used by tests and by
	// ablation benchmarks).
	DisableSpectral bool
}

func (o Options) withDefaults() Options {
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.LocalSearchRounds == 0 {
		o.LocalSearchRounds = 12
	}
	if o.PowerIterations == 0 {
		o.PowerIterations = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Solve returns (up to) k nodes approximately maximizing induced edge
// weight, using the full portfolio. The returned slice is sorted.
func Solve(g *wgraph.Graph, k int, opts Options) []int {
	guard.Inject("dks.solve")
	opts = opts.withDefaults()
	n := g.NumNodes()
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if k <= 0 || g.NumEdges() == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	best := GreedyPeel(g, k)
	bestW := g.InducedWeightOf(best)
	consider := func(cand []int) {
		if len(cand) == 0 {
			return
		}
		cand = LocalSearch(g, k, cand, opts.LocalSearchRounds)
		if w := g.InducedWeightOf(cand); w > bestW {
			best, bestW = cand, w
		}
	}
	consider(best)
	consider(GreedyExpand(g, k, -1))
	for r := 0; r < opts.Restarts; r++ {
		consider(GreedyExpand(g, k, rng.Intn(n)))
	}
	if !opts.DisableSpectral {
		consider(Spectral(g, k, opts.PowerIterations))
	}
	sort.Ints(best)
	return best
}

// GreedyPeel repeatedly removes the node of minimum weighted degree until k
// nodes remain (Charikar-style peeling adapted to the cardinality bound).
// Among the peeling prefix it returns the k-node suffix.
func GreedyPeel(g *wgraph.Graph, k int) []int {
	n := g.NumNodes()
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if k <= 0 {
		return nil
	}
	deg := make([]float64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
		alive[v] = true
	}
	// The lowest degree pops first: keys are negated degrees.
	var h heapq.Max
	for v := 0; v < n; v++ {
		h.Push(heapq.Entry{I: v, Key: -deg[v]})
	}
	remaining := n
	for remaining > k {
		it := h.Pop()
		if !alive[it.I] {
			continue
		}
		if -it.Key > deg[it.I]+1e-12 {
			// Stale entry; re-push with the current key.
			h.Push(heapq.Entry{I: it.I, Key: -deg[it.I]})
			continue
		}
		alive[it.I] = false
		remaining--
		g.Neighbors(it.I, func(u int, w float64, _ int) {
			if alive[u] {
				deg[u] -= w
				h.Push(heapq.Entry{I: u, Key: -deg[u]})
			}
		})
	}
	out := make([]int, 0, k)
	for v := 0; v < n; v++ {
		if alive[v] {
			out = append(out, v)
		}
	}
	return out
}

// GreedyExpand grows a k-node set by repeatedly adding the node with the
// largest weighted degree into the current set. start picks the first node;
// pass -1 to start from an endpoint of the heaviest edge.
func GreedyExpand(g *wgraph.Graph, k int, start int) []int {
	n := g.NumNodes()
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if k <= 0 {
		return nil
	}
	if start < 0 {
		bestW := -1.0
		for _, e := range g.Edges() {
			if e.W > bestW {
				bestW = e.W
				start = e.U
			}
		}
		if start < 0 {
			start = 0
		}
	}
	in := make([]bool, n)
	gain := make([]float64, n)
	sel := make([]int, 0, k)
	add := func(v int) {
		in[v] = true
		sel = append(sel, v)
		g.Neighbors(v, func(u int, w float64, _ int) {
			gain[u] += w
		})
	}
	add(start)
	var h heapq.Max
	for v := 0; v < n; v++ {
		if !in[v] && gain[v] > 0 {
			h.Push(heapq.Entry{I: v, Key: gain[v]})
		}
	}
	for len(sel) < k {
		var next int = -1
		for h.Len() > 0 {
			it := h.Pop()
			if in[it.I] {
				continue
			}
			if it.Key < gain[it.I]-1e-12 {
				h.Push(heapq.Entry{I: it.I, Key: gain[it.I]})
				continue
			}
			next = it.I
			break
		}
		if next < 0 {
			// No connected candidate left; add any remaining node.
			for v := 0; v < n && next < 0; v++ {
				if !in[v] {
					next = v
				}
			}
			if next < 0 {
				break
			}
		}
		add(next)
		g.Neighbors(next, func(u int, w float64, _ int) {
			if !in[u] {
				h.Push(heapq.Entry{I: u, Key: gain[u]})
			}
		})
	}
	return sel
}

// LocalSearch improves a candidate set by single-swap hill climbing: swap a
// selected node for an unselected one whenever that raises the induced
// weight. rounds caps full sweeps. The (possibly improved) set is returned.
func LocalSearch(g *wgraph.Graph, k int, cand []int, rounds int) []int {
	n := g.NumNodes()
	if len(cand) == 0 || len(cand) >= n {
		return cand
	}
	in := make([]bool, n)
	for _, v := range cand {
		in[v] = true
	}
	// inDeg[v] = weighted degree of v into the current set.
	inDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		inDeg[v] = g.WeightedDegreeInto(v, in)
	}
	sel := append([]int(nil), cand...)
	for round := 0; round < rounds; round++ {
		// Best single swap over all (selected u, unselected v) pairs.
		bestI, bestV, bestDelta := -1, -1, 1e-12
		for i, u := range sel {
			loss := inDeg[u]
			for v := 0; v < n; v++ {
				if in[v] {
					continue
				}
				delta := inDeg[v] - g.EdgeWeight(u, v) - loss
				if delta > bestDelta {
					bestI, bestV, bestDelta = i, v, delta
				}
			}
		}
		if bestI < 0 {
			break
		}
		swapNodes(g, in, inDeg, sel[bestI], bestV)
		sel[bestI] = bestV
	}
	return sel
}

func swapNodes(g *wgraph.Graph, in []bool, inDeg []float64, out, add int) {
	in[out] = false
	g.Neighbors(out, func(w int, wt float64, _ int) {
		inDeg[w] -= wt
	})
	in[add] = true
	g.Neighbors(add, func(w int, wt float64, _ int) {
		inDeg[w] += wt
	})
}

// Spectral computes the leading eigenvector of the weighted adjacency
// matrix by power iteration and returns the k nodes of the largest entries
// (dense-subgraph rounding of the rank-1 bilinear relaxation [53]).
func Spectral(g *wgraph.Graph, k int, iters int) []int {
	n := g.NumNodes()
	if n == 0 || k <= 0 {
		return nil
	}
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < iters; it++ {
		for i := range y {
			y[i] = 0
		}
		for _, e := range g.Edges() {
			y[e.U] += e.W * x[e.V]
			y[e.V] += e.W * x[e.U]
		}
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-15 {
			break
		}
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(x[idx[a]]) > math.Abs(x[idx[b]])
	})
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

// BruteForce finds the exact optimum by enumerating all k-subsets; use only
// on tiny graphs (n ≤ 24).
func BruteForce(g *wgraph.Graph, k int) []int {
	n := g.NumNodes()
	if n > 24 {
		panic("dks: BruteForce limited to 24 nodes")
	}
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var best []int
	bestW := -1.0
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			if w := g.InducedWeightOf(cur); w > bestW {
				bestW = w
				best = append([]int(nil), cur...)
			}
			return
		}
		for v := start; v <= n-(k-len(cur)); v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return best
}
