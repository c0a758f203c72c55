// Package mc3 implements the Minimization of Classifier Construction
// Costs problem (MC3) of Gershtein et al. [22, 23], the non-budgeted
// predecessor of BCC (Definition 2.4 of the paper): find a classifier set
// of minimum total cost that covers every input query.
//
// Matching the published guarantees (Theorem 2.5):
//
//   - for l ≤ 2 the problem is solved exactly in polynomial time, here by
//     reduction to maximum-weight closure / project selection, i.e. one
//     min-cut: choosing the set N of singleton classifiers to buy and
//     paying the pair classifier of every length-2 query not inside N is
//     equivalent to maximizing Σ_{e ⊆ N} C(e) − Σ_{v∈N} C(v);
//   - for l ≥ 3 a greedy weighted set cover over (query, property) slots
//     achieves an O(log n) approximation, followed by a reverse-delete
//     redundancy prune.
//
// The BCC algorithm A^BCC uses MC3 as a black-box local-search step
// (line 3 of Algorithm 1): re-cover the query set of the current solution
// at minimum cost and keep the outcome if it is cheaper.
package mc3

import (
	"math"
	"sort"

	"repro/internal/guard"
	"repro/internal/heapq"
	"repro/internal/maxflow"
	"repro/internal/propset"
)

// Input is an MC3 problem: queries to cover and the classifier cost
// oracle. Cost must be defined (possibly +Inf) for every non-empty subset
// of every query; +Inf excludes a classifier.
type Input struct {
	Queries []propset.Set
	Cost    func(propset.Set) float64
}

// Output is a solved MC3 instance.
type Output struct {
	// Classifiers is the selected set, sorted by (length, key).
	Classifiers []propset.Set
	// Cost is the total construction cost of Classifiers.
	Cost float64
	// Uncovered lists queries that cannot be covered by any finite-cost
	// classifier combination; they are excluded from the guarantee.
	Uncovered []propset.Set
}

// Solve covers all coverable queries at low cost: exactly for l ≤ 2,
// greedily (O(log n)-approximate) otherwise.
func Solve(inp Input) Output {
	guard.Inject("mc3.solve")
	maxLen := 0
	for _, q := range inp.Queries {
		if q.Len() > maxLen {
			maxLen = q.Len()
		}
	}
	if maxLen <= 2 {
		return SolveExactL2(inp)
	}
	return SolveGreedy(inp)
}

// SolveExactL2 solves MC3 exactly when every query has length ≤ 2, via a
// single min-cut on the project-selection network. It panics if a query is
// longer.
func SolveExactL2(inp Input) Output {
	var out Output

	// Intern the properties appearing in the queries.
	propIdx := map[propset.ID]int{}
	var props []propset.ID
	idx := func(p propset.ID) int {
		if i, ok := propIdx[p]; ok {
			return i
		}
		i := len(props)
		propIdx[p] = i
		props = append(props, p)
		return i
	}

	type pairQuery struct {
		q        propset.Set
		u, v     int // property indices
		edgeCost float64
	}
	var pairs []pairQuery
	forced := map[int]bool{} // property index → must buy singleton
	seen := map[string]bool{}

	singletonCost := func(p propset.ID) float64 { return inp.Cost(propset.New(p)) }

	for _, q := range inp.Queries {
		if seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		switch q.Len() {
		case 0:
			continue
		case 1:
			if math.IsInf(singletonCost(q[0]), 1) {
				out.Uncovered = append(out.Uncovered, q)
				continue
			}
			forced[idx(q[0])] = true
		case 2:
			cXY := inp.Cost(q)
			cX, cY := singletonCost(q[0]), singletonCost(q[1])
			if math.IsInf(cXY, 1) && (math.IsInf(cX, 1) || math.IsInf(cY, 1)) {
				out.Uncovered = append(out.Uncovered, q)
				continue
			}
			if math.IsInf(cX, 1) || math.IsInf(cY, 1) {
				// Must buy the pair classifier.
				pairs = append(pairs, pairQuery{q: q, u: -1, v: -1, edgeCost: cXY})
				continue
			}
			pairs = append(pairs, pairQuery{q: q, u: idx(q[0]), v: idx(q[1]), edgeCost: cXY})
		default:
			panic("mc3: SolveExactL2 requires queries of length ≤ 2")
		}
	}

	nProps := len(props)
	// Network: source 0, sink 1, edge-gadget nodes 2..2+|pairs|,
	// property nodes follow.
	src, snk := 0, 1
	edgeNode := func(i int) int { return 2 + i }
	propNode := func(i int) int { return 2 + len(pairs) + i }
	g := maxflow.New(2 + len(pairs) + nProps)
	for i, pq := range pairs {
		if pq.u < 0 {
			continue // unconditional pair purchase, no gadget needed
		}
		g.AddEdge(src, edgeNode(i), pq.edgeCost) // may be +Inf
		g.AddEdge(edgeNode(i), propNode(pq.u), math.Inf(1))
		g.AddEdge(edgeNode(i), propNode(pq.v), math.Inf(1))
	}
	for i := range props {
		c := singletonCost(props[i])
		if forced[i] {
			c = 0 // already paid below
		}
		g.AddEdge(propNode(i), snk, c)
	}
	g.MaxFlow(src, snk)
	side := g.MinCut(src)

	chosen := map[string]propset.Set{}
	add := func(s propset.Set) { chosen[s.Key()] = s }
	for i := range props {
		if side[propNode(i)] || forced[i] {
			add(propset.New(props[i]))
		}
	}
	for _, pq := range pairs {
		if pq.u < 0 {
			add(pq.q)
			continue
		}
		buyBoth := side[propNode(pq.u)] && side[propNode(pq.v)]
		if !buyBoth {
			add(pq.q)
		}
	}
	return finish(inp, out, chosen)
}

// SolveGreedy covers the queries by weighted set-cover greedy over
// (query, property) slots: each step selects the classifier minimizing
// cost per newly covered slot; a reverse-delete pass then removes
// redundant classifiers.
func SolveGreedy(inp Input) Output {
	var out Output

	type queryState struct {
		q       propset.Set
		covered propset.Set
	}
	var states []queryState
	seen := map[string]bool{}
	for _, q := range inp.Queries {
		if q.Len() == 0 || seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		states = append(states, queryState{q: q})
	}

	// Candidate classifiers: all finite-cost subsets of queries, indexed
	// by the queries they are relevant to.
	type candidate struct {
		c       propset.Set
		cost    float64
		queries []int
	}
	candIdx := map[string]int{}
	var cands []candidate
	for qi, st := range states {
		st.q.Subsets(func(sub propset.Set) {
			k := sub.Key()
			if i, ok := candIdx[k]; ok {
				cands[i].queries = append(cands[i].queries, qi)
				return
			}
			cost := inp.Cost(sub)
			if math.IsInf(cost, 1) {
				return
			}
			candIdx[k] = len(cands)
			cands = append(cands, candidate{c: sub.Clone(), cost: cost, queries: []int{qi}})
		})
	}

	// Queries with no finite path to full coverage: detect by checking
	// whether the union of finite-cost subsets equals the query.
	coverable := make([]bool, len(states))
	for qi, st := range states {
		var acc propset.Set
		st.q.Subsets(func(sub propset.Set) {
			if _, ok := candIdx[sub.Key()]; ok {
				acc = acc.Union(sub)
			}
		})
		if acc.Equal(st.q) {
			coverable[qi] = true
		} else {
			out.Uncovered = append(out.Uncovered, st.q)
		}
	}

	chosen := map[string]propset.Set{}
	remainingSlots := 0
	for qi := range states {
		if coverable[qi] {
			remainingSlots += states[qi].q.Len()
		}
	}
	// Lazy-greedy: a candidate's cost-per-new-slot only grows as coverage
	// accumulates, so a stale heap entry can be revalidated on pop.
	newSlotsOf := func(i int) int {
		n := 0
		for _, qi := range cands[i].queries {
			if coverable[qi] {
				n += cands[i].c.Minus(states[qi].covered).Len()
			}
		}
		return n
	}
	scoreOf := func(i int, slots int) float64 {
		if slots == 0 {
			return math.Inf(1)
		}
		return cands[i].cost / float64(slots)
	}
	// The cheapest cost per slot pops first: keys are negated scores.
	var h heapq.Max
	for i := range cands {
		if slots := newSlotsOf(i); slots > 0 {
			h.Push(heapq.Entry{I: i, Key: -scoreOf(i, slots)})
		}
	}
	for remainingSlots > 0 && h.Len() > 0 {
		e := h.Pop()
		if _, ok := chosen[cands[e.I].c.Key()]; ok {
			continue
		}
		slots := newSlotsOf(e.I)
		if slots == 0 {
			continue
		}
		if cur := scoreOf(e.I, slots); cur > -e.Key+1e-12 {
			h.Push(heapq.Entry{I: e.I, Key: -cur})
			continue
		}
		cand := cands[e.I]
		chosen[cand.c.Key()] = cand.c
		for _, qi := range cand.queries {
			if !coverable[qi] {
				continue
			}
			gained := cand.c.Minus(states[qi].covered).Len()
			states[qi].covered = states[qi].covered.Union(cand.c)
			remainingSlots -= gained
		}
	}

	out = finish(inp, out, chosen)
	return reverseDelete(inp, out)
}

// reverseDelete drops classifiers (costliest first) whose removal keeps
// every non-uncovered query covered. Each removal trial only revisits the
// queries the classifier is relevant to.
func reverseDelete(inp Input, out Output) Output {
	uncovered := map[string]bool{}
	for _, q := range out.Uncovered {
		uncovered[q.Key()] = true
	}
	classifiers := append([]propset.Set(nil), out.Classifiers...)
	sort.Slice(classifiers, func(i, j int) bool {
		return inp.Cost(classifiers[i]) > inp.Cost(classifiers[j])
	})
	have := map[string]bool{}
	for _, c := range classifiers {
		have[c.Key()] = true
	}
	// Index: classifier key → queries it is a subset of.
	relq := map[string][]propset.Set{}
	seenQ := map[string]bool{}
	for _, q := range inp.Queries {
		if q.Len() == 0 || uncovered[q.Key()] || seenQ[q.Key()] {
			continue
		}
		seenQ[q.Key()] = true
		q.Subsets(func(sub propset.Set) {
			k := sub.Key()
			if have[k] {
				relq[k] = append(relq[k], q)
			}
		})
	}
	covers := func(q propset.Set) bool {
		var acc propset.Set
		q.Subsets(func(sub propset.Set) {
			if have[sub.Key()] {
				acc = acc.Union(sub)
			}
		})
		return acc.Equal(q)
	}
	for _, c := range classifiers {
		if inp.Cost(c) == 0 {
			continue
		}
		k := c.Key()
		have[k] = false
		ok := true
		for _, q := range relq[k] {
			if !covers(q) {
				ok = false
				break
			}
		}
		if !ok {
			have[k] = true
		}
	}
	chosen := map[string]propset.Set{}
	for _, c := range classifiers {
		if have[c.Key()] {
			chosen[c.Key()] = c
		}
	}
	return finish(inp, Output{Uncovered: out.Uncovered}, chosen)
}

// finish assembles a deterministic Output from the chosen set.
func finish(inp Input, out Output, chosen map[string]propset.Set) Output {
	out.Classifiers = out.Classifiers[:0]
	out.Cost = 0
	for _, c := range chosen {
		out.Classifiers = append(out.Classifiers, c)
		out.Cost += inp.Cost(c)
	}
	sort.Slice(out.Classifiers, func(i, j int) bool {
		a, b := out.Classifiers[i], out.Classifiers[j]
		if a.Len() != b.Len() {
			return a.Len() < b.Len()
		}
		return a.Key() < b.Key()
	})
	return out
}

// Covers reports whether the output's classifier set covers q.
func (o Output) Covers(q propset.Set) bool {
	have := map[string]bool{}
	for _, c := range o.Classifiers {
		have[c.Key()] = true
	}
	var acc propset.Set
	q.Subsets(func(sub propset.Set) {
		if have[sub.Key()] {
			acc = acc.Union(sub)
		}
	})
	return acc.Equal(q)
}
