// Package qk implements Quadratic Knapsack (QK) solvers: given an
// undirected graph with node costs and edge weights plus a budget B, select
// a node set of total cost ≤ B maximizing the induced edge weight.
//
// QK is the graph formulation of the BCC(2) subproblem (Observation 4.4 of
// the paper): nodes are singleton classifiers, an edge {X,Y} is a query xy
// weighted by its utility, node costs are classifier costs.
//
// Two solvers mirror the paper:
//
//   - SolveHeuristic is A_H^QK (Section 4.1): preprocessing to integer
//     costs in [1, B/2), expensive-node enumeration, log n random
//     bipartitions, a copy blow-up solved by an HkS heuristic (run
//     implicitly in copy-count space for scalability), the two-phase
//     copy-swapping procedure, and the final-selection case analysis of
//     Theorem 4.7.
//   - SolveTheory is A_T^QK, the modified Taylor [62] algorithm with the
//     P1/P2/P3 procedures and the Õ(n^{1/3}) worst-case bound of
//     Lemma 4.6; it is provided as a faithful reference implementation.
//
// SolveGreedy is the density-greedy baseline, and BruteForce the exhaustive
// validator used in tests.
package qk

import (
	"math"
	"sort"

	"repro/internal/guard"
	"repro/internal/heapq"
	"repro/internal/wgraph"
)

// Result is a solved QK instance: the selected nodes (sorted), their
// induced edge weight and their total cost.
type Result struct {
	Nodes  []int
	Weight float64
	Cost   float64
}

func resultFor(g *wgraph.Graph, nodes []int) Result {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	return Result{
		Nodes:  sorted,
		Weight: g.InducedWeightOf(sorted),
		Cost:   g.TotalCost(sorted),
	}
}

func better(a, b Result) Result {
	if b.Weight > a.Weight {
		return b
	}
	return a
}

// SolveGreedy grows a solution by repeatedly adding the node with the best
// marginal-weight-to-cost ratio that still fits the budget. Zero-cost nodes
// are always taken, and isolated nodes carry a discounted bootstrap score
// from their best incident edge so heavy pairs can form. It is both the
// baseline reported in the experiments and the safety floor inside
// SolveHeuristic.
func SolveGreedy(g *wgraph.Graph, budget float64) Result {
	var free []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Cost(v) == 0 {
			free = append(free, v)
		}
	}
	return resultFor(g, greedyGrow(nil, g, budget, free))
}

// greedyGrow extends start (taken as already selected, its cost counted)
// with the best marginal weight-per-cost additions until the budget is
// exhausted. Gains are tracked incrementally in a lazily revalidated heap:
// since the remaining budget only shrinks, a node that does not fit can be
// discarded permanently, and stale scores are re-pushed on pop.
func greedyGrow(gu *guard.Guard, g *wgraph.Graph, budget float64, start []int) []int {
	n := g.NumNodes()
	in := make([]bool, n)
	var cost float64
	out := make([]int, 0, len(start))
	for _, v := range start {
		if !in[v] {
			in[v] = true
			cost += g.Cost(v)
			out = append(out, v)
		}
	}
	gain := make([]float64, n)
	boot := make([]float64, n)
	for _, e := range g.Edges() {
		switch {
		case in[e.U] && !in[e.V]:
			gain[e.V] += e.W
		case in[e.V] && !in[e.U]:
			gain[e.U] += e.W
		}
		if e.W/4 > boot[e.U] {
			boot[e.U] = e.W / 4
		}
		if e.W/4 > boot[e.V] {
			boot[e.V] = e.W / 4
		}
	}
	score := func(v int) float64 {
		gv := gain[v]
		if gv == 0 {
			gv = boot[v]
		}
		if gv <= 0 {
			return 0
		}
		return gv / math.Max(g.Cost(v), 1e-9)
	}
	var h heapq.Max
	for v := 0; v < n; v++ {
		if !in[v] {
			if sc := score(v); sc > 0 {
				h.Push(heapq.Entry{I: v, Key: sc})
			}
		}
	}
	for h.Len() > 0 {
		if gu.Check() {
			break
		}
		e := h.Pop()
		v := e.I
		if in[v] {
			continue
		}
		sc := score(v)
		if sc <= 0 {
			continue
		}
		if math.Abs(sc-e.Key) > 1e-12 {
			h.Push(heapq.Entry{I: v, Key: sc})
			continue
		}
		if g.Cost(v) > budget-cost+1e-9 {
			continue // permanently unaffordable: budget only shrinks
		}
		in[v] = true
		cost += g.Cost(v)
		out = append(out, v)
		g.Neighbors(v, func(u int, w float64, _ int) {
			if !in[u] {
				gain[u] += w
				if sc := score(u); sc > 0 {
					h.Push(heapq.Entry{I: u, Key: sc})
				}
			}
		})
	}
	return out
}

// BruteForce enumerates all node subsets; for tests on tiny graphs only.
func BruteForce(g *wgraph.Graph, budget float64) Result {
	n := g.NumNodes()
	if n > 22 {
		panic("qk: BruteForce limited to 22 nodes")
	}
	var best Result
	nodes := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		nodes = nodes[:0]
		var cost float64
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				nodes = append(nodes, v)
				cost += g.Cost(v)
			}
		}
		if cost > budget+1e-9 {
			continue
		}
		if w := g.InducedWeightOf(nodes); w > best.Weight {
			best = Result{Nodes: append([]int(nil), nodes...), Weight: w, Cost: cost}
		}
	}
	return best
}
