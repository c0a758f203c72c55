// Package densest implements Densest Subgraph (DS) solvers: find a node
// set maximizing the ratio of induced edge weight to total node cost.
//
// This is the substrate of the ECC algorithm (Theorem 5.4 of the paper):
// maximizing utility-per-cost of a classifier set reduces to DS on a graph
// whose nodes are singleton classifiers (weight = cost), whose edges are
// length-2 queries (weight = utility), with a zero-cost vertex v* anchoring
// singleton queries. DS is solvable exactly in polynomial time even on
// hypergraphs [35]; we provide:
//
//   - ExactGraph: exact solver on graphs via Dinkelbach iteration, each
//     step one min-cut on the classic densest-subgraph network;
//   - PeelHypergraph: the greedy peeling r-approximation (r = max
//     hyperedge cardinality), the variant the paper's experiments used.
package densest

import (
	"math"

	"repro/internal/heapq"
	"repro/internal/maxflow"
	"repro/internal/wgraph"
)

// Result is a solved DS instance: the chosen nodes, their edge weight,
// node cost, and ratio (weight/cost; +Inf if cost is 0 and weight > 0).
type Result struct {
	Nodes  []int
	Weight float64
	Cost   float64
	Ratio  float64
}

func ratio(w, c float64) float64 {
	if c <= 0 {
		if w > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return w / c
}

// ExactGraph maximizes induced-edge-weight / node-cost over non-empty
// subsets, using Dinkelbach iterations: given a guess λ, a min-cut on the
// network s→e (cap w_e), e→endpoints (∞), v→t (cap λ·c(v)) decides whether
// some S achieves w(S) − λ·c(S) > 0 and yields the maximizing S. Each
// iteration strictly increases λ; convergence is finite.
func ExactGraph(g *wgraph.Graph) Result {
	n := g.NumNodes()
	if n == 0 || g.NumEdges() == 0 {
		return Result{}
	}
	// Zero-cost components with positive weight have infinite ratio.
	if res, inf := infiniteRatioSet(g); inf {
		return res
	}

	best := greedySeed(g)
	for iter := 0; iter < 100; iter++ {
		lambda := best.Ratio
		S, val := maxCutSet(g, lambda)
		if val <= 1e-9 || len(S) == 0 {
			break
		}
		cand := evaluate(g, S)
		if cand.Ratio <= best.Ratio+1e-12 {
			break
		}
		best = cand
	}
	return best
}

// infiniteRatioSet looks for a set of only zero-cost nodes carrying
// positive edge weight.
func infiniteRatioSet(g *wgraph.Graph) (Result, bool) {
	n := g.NumNodes()
	zero := make([]bool, n)
	for v := 0; v < n; v++ {
		zero[v] = g.Cost(v) == 0
	}
	var nodes []int
	var w float64
	for _, e := range g.Edges() {
		if zero[e.U] && zero[e.V] && e.W > 0 {
			w += e.W
			nodes = append(nodes, e.U, e.V)
		}
	}
	if w <= 0 {
		return Result{}, false
	}
	seen := map[int]bool{}
	var uniq []int
	for _, v := range nodes {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	return Result{Nodes: uniq, Weight: w, Cost: 0, Ratio: math.Inf(1)}, true
}

// greedySeed produces a positive-ratio starting point: the best
// single-edge set, or the full graph.
func greedySeed(g *wgraph.Graph) Result {
	n := g.NumNodes()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	best := evaluate(g, all)
	for _, e := range g.Edges() {
		cand := evaluate(g, []int{e.U, e.V})
		if cand.Ratio > best.Ratio {
			best = cand
		}
	}
	return best
}

// maxCutSet returns the node set S maximizing w(S) − λ·c(S) and the
// achieved value, via one min-cut.
func maxCutSet(g *wgraph.Graph, lambda float64) ([]int, float64) {
	n := g.NumNodes()
	m := g.NumEdges()
	src, snk := 0, 1
	edgeNode := func(i int) int { return 2 + i }
	nodeNode := func(v int) int { return 2 + m + v }
	f := maxflow.New(2 + m + n)
	var totalW float64
	for i, e := range g.Edges() {
		f.AddEdge(src, edgeNode(i), e.W)
		f.AddEdge(edgeNode(i), nodeNode(e.U), math.Inf(1))
		f.AddEdge(edgeNode(i), nodeNode(e.V), math.Inf(1))
		totalW += e.W
	}
	for v := 0; v < n; v++ {
		f.AddEdge(nodeNode(v), snk, lambda*g.Cost(v))
	}
	cut := f.MaxFlow(src, snk)
	side := f.MinCut(src)
	var S []int
	for v := 0; v < n; v++ {
		if side[nodeNode(v)] {
			S = append(S, v)
		}
	}
	return S, totalW - cut
}

func evaluate(g *wgraph.Graph, nodes []int) Result {
	w := g.InducedWeightOf(nodes)
	c := g.TotalCost(nodes)
	return Result{Nodes: nodes, Weight: w, Cost: c, Ratio: ratio(w, c)}
}

// HEdge is a weighted hyperedge over node indices.
type HEdge struct {
	Nodes []int
	W     float64
}

// Hypergraph is a node-costed, hyperedge-weighted hypergraph for
// PeelHypergraph. Build it directly; the zero value with populated slices
// is valid.
type Hypergraph struct {
	NodeCost []float64
	Edges    []HEdge
}

// PeelHypergraph runs the greedy peeling approximation for densest
// subhypergraph with node costs: repeatedly remove the node with the
// smallest incident-weight-to-cost ratio, tracking the best ratio among all
// suffixes. The approximation factor is the maximum hyperedge cardinality.
func PeelHypergraph(h Hypergraph) Result {
	n := len(h.NodeCost)
	if n == 0 || len(h.Edges) == 0 {
		return Result{}
	}
	const eps = 1e-12
	alive := make([]bool, n)
	incident := make([][]int, n)
	deg := make([]float64, n)
	edgeAlive := make([]bool, len(h.Edges))
	var totalW, totalC float64
	for v := 0; v < n; v++ {
		alive[v] = true
		totalC += h.NodeCost[v]
	}
	for i, e := range h.Edges {
		edgeAlive[i] = true
		totalW += e.W
		for _, v := range e.Nodes {
			incident[v] = append(incident[v], i)
			deg[v] += e.W
		}
	}
	key := func(v int) float64 { return deg[v] / math.Max(h.NodeCost[v], eps) }

	// The lowest key pops first: heap keys are negated.
	var pq heapq.Max
	for v := 0; v < n; v++ {
		pq.Push(heapq.Entry{I: v, Key: -key(v)})
	}

	bestRatio := ratio(totalW, totalC)
	bestAlive := append([]bool(nil), alive...)
	remaining := n
	for remaining > 1 {
		var v int
		for {
			it := pq.Pop()
			if !alive[it.I] {
				continue
			}
			if -it.Key > key(it.I)+eps {
				pq.Push(heapq.Entry{I: it.I, Key: -key(it.I)})
				continue
			}
			v = it.I
			break
		}
		alive[v] = false
		remaining--
		totalC -= h.NodeCost[v]
		for _, ei := range incident[v] {
			if !edgeAlive[ei] {
				continue
			}
			edgeAlive[ei] = false
			e := h.Edges[ei]
			totalW -= e.W
			for _, u := range e.Nodes {
				if alive[u] {
					deg[u] -= e.W
					pq.Push(heapq.Entry{I: u, Key: -key(u)})
				}
			}
		}
		if r := ratio(totalW, totalC); r > bestRatio {
			bestRatio = r
			copy(bestAlive, alive)
		}
	}

	var nodes []int
	for v := 0; v < n; v++ {
		if bestAlive[v] {
			nodes = append(nodes, v)
		}
	}
	// Recompute exact weight/cost of the kept set.
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	var w, c float64
	for _, v := range nodes {
		c += h.NodeCost[v]
	}
	for _, e := range h.Edges {
		ok := true
		for _, v := range e.Nodes {
			if !in[v] {
				ok = false
				break
			}
		}
		if ok {
			w += e.W
		}
	}
	return Result{Nodes: nodes, Weight: w, Cost: c, Ratio: ratio(w, c)}
}
