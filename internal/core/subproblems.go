package core

import (
	"math"
	"sort"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/knapsack"
	"repro/internal/propset"
	"repro/internal/wgraph"
)

// subproblems is one materialization of the BCC(1) and BCC(2) instances of
// the paper (Observations 4.3 and 4.4) for the current tracker state: the
// knapsack items of all 1-covers and the QK graph of all 2-covers.
//
// In the residual setting (some classifiers already selected), a classifier
// c ⊆ q is a 1-cover of q iff c ⊇ residual(q), and a pair {c1, c2} ⊆ 2^q is
// a 2-cover iff c1 ∪ c2 ⊇ residual(q) while neither alone suffices —
// exactly the enlarged cover sets of Example 4.8.
type subproblems struct {
	items    []knapsack.Item
	itemSets []propset.Set
	// graph is the QK instance. Beyond the plain 2-cover edges of
	// Observation 4.4, every classifier's 1-cover value is attached as an
	// edge to a zero-cost virtual node vStar (the same encoding the
	// paper's ECC reduction uses for singleton queries): the QK solver
	// preselects zero-cost nodes, so these edges become linear bonuses and
	// the QK candidate optimizes the combined 1-cover + 2-cover objective
	// instead of being blind to singleton-query utility.
	graph     *wgraph.Graph
	nodeSets  []propset.Set
	nodeIndex map[string]int
	vStar     int // node index of the virtual anchor, -1 if absent
}

// buildSubproblems scans the uncovered queries and assembles both
// subproblem inputs. allowed (nil = everything) restricts the candidate
// classifiers, implementing the pruning of Algorithm 1 step 1. maxCost
// (+Inf = everything) drops candidates that cannot fit the calling
// phase's budget — the warm fast path's replacement for pruning.
func buildSubproblems(g *guard.Guard, t *cover.Tracker, allowed map[string]bool, maxCost float64) *subproblems {
	sp := &subproblems{nodeIndex: make(map[string]int)}
	itemIndex := make(map[string]int)
	type edgeAgg map[[2]int]float64
	edges := edgeAgg{}

	itemFor := func(c propset.Set, cost float64) int {
		k := c.Key()
		if i, ok := itemIndex[k]; ok {
			return i
		}
		i := len(sp.items)
		itemIndex[k] = i
		sp.items = append(sp.items, knapsack.Item{Weight: cost, Payload: i})
		sp.itemSets = append(sp.itemSets, c.Clone())
		return i
	}
	nodeFor := func(c propset.Set) int {
		k := c.Key()
		if i, ok := sp.nodeIndex[k]; ok {
			return i
		}
		i := len(sp.nodeSets)
		sp.nodeIndex[k] = i
		sp.nodeSets = append(sp.nodeSets, c.Clone())
		return i
	}

	type cand struct {
		c    propset.Set
		cost float64
	}
	in := t.Instance()
	for qi, q := range in.Queries() {
		// A trip yields a partial subproblem — the phase still solves it and
		// any candidate it produces remains feasibility-checked.
		if g.Check() {
			break
		}
		if t.Covered(qi) {
			continue
		}
		res := t.Residual(qi)
		u := q.Utility
		var cands []cand
		q.Props.Subsets(func(sub propset.Set) {
			k := sub.Key()
			if t.Has(sub) {
				return
			}
			if allowed != nil && !allowed[k] {
				return
			}
			cost := in.Cost(sub)
			if math.IsInf(cost, 1) || cost > maxCost+1e-9 {
				return
			}
			cands = append(cands, cand{c: sub, cost: cost})
		})
		// 1-covers.
		for _, cd := range cands {
			if res.SubsetOf(cd.c) {
				i := itemFor(cd.c, cd.cost)
				sp.items[i].Value += u
			}
		}
		// 2-covers (both classifiers needed).
		for i := 0; i < len(cands); i++ {
			if res.SubsetOf(cands[i].c) {
				continue
			}
			for j := i + 1; j < len(cands); j++ {
				if res.SubsetOf(cands[j].c) {
					continue
				}
				if !res.SubsetOf(cands[i].c.Union(cands[j].c)) {
					continue
				}
				a := nodeFor(cands[i].c)
				b := nodeFor(cands[j].c)
				if a > b {
					a, b = b, a
				}
				edges[[2]int{a, b}] += u
			}
		}
	}

	// Attach 1-cover values through vStar. Knapsack items that are not yet
	// QK nodes become nodes so the QK solver can select them too.
	sp.vStar = -1
	if len(sp.items) > 0 {
		for i := range sp.items {
			nodeFor(sp.itemSets[i])
		}
		sp.vStar = len(sp.nodeSets)
	}

	n := len(sp.nodeSets)
	if sp.vStar >= 0 {
		n++
	}
	sp.graph = wgraph.New(n)
	for i, c := range sp.nodeSets {
		sp.graph.SetCost(i, in.Cost(c))
	}
	// Add edges in (a, b) order, not map order: the order fixes the
	// adjacency lists, and through them QK's heap pushes and tie-breaks.
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		sp.graph.AddEdgeMerged(k[0], k[1], edges[k])
	}
	if sp.vStar >= 0 {
		sp.graph.SetCost(sp.vStar, 0)
		for i := range sp.items {
			node := sp.nodeIndex[sp.itemSets[i].Key()]
			sp.graph.AddEdgeMerged(node, sp.vStar, sp.items[i].Value)
		}
	}
	return sp
}

// qkNodes translates a QK solution back to classifier sets, dropping the
// virtual anchor.
func (sp *subproblems) qkNodes(nodes []int) []propset.Set {
	var out []propset.Set
	for _, v := range nodes {
		if v == sp.vStar {
			continue
		}
		out = append(out, sp.nodeSets[v])
	}
	return out
}
