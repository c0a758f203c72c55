// Package cover provides the incremental coverage tracker shared by the
// BCC, GMC3 and ECC solvers: it maintains, for a fixed instance, the set
// of selected classifiers, the residual (not-yet-testable) part of every
// query, covered flags, total utility and total cost, all updated in time
// proportional to the classifiers' relevance lists. It also holds the
// IG1 and IG2 greedy queues those solvers' baselines share (IG1Queue,
// IG2Queue).
package cover

import (
	"math"

	"repro/internal/model"
	"repro/internal/propset"
)

// Tracker is mutable coverage state over one instance. Create one with
// New; the zero value is not usable.
type Tracker struct {
	in       *model.Instance
	selected map[string]bool
	cost     float64
	residual []propset.Set
	covered  []bool
	utility  float64
	relq     map[string][]int
	coverCt  int
}

// New returns an empty tracker (nothing selected) for the instance.
func New(in *model.Instance) *Tracker {
	t := &Tracker{
		in:       in,
		selected: make(map[string]bool),
		residual: make([]propset.Set, in.NumQueries()),
		covered:  make([]bool, in.NumQueries()),
		relq:     make(map[string][]int),
	}
	for qi, q := range in.Queries() {
		t.residual[qi] = q.Props
		q.Props.Subsets(func(sub propset.Set) {
			k := sub.Key()
			t.relq[k] = append(t.relq[k], qi)
		})
	}
	return t
}

// Instance returns the tracked instance.
func (t *Tracker) Instance() *model.Instance { return t.in }

// Cost returns the total cost of the selected classifiers.
func (t *Tracker) Cost() float64 { return t.cost }

// Utility returns the total utility of covered queries.
func (t *Tracker) Utility() float64 { return t.utility }

// CoveredCount returns the number of covered queries.
func (t *Tracker) CoveredCount() int { return t.coverCt }

// Remaining returns the unspent budget of the instance.
func (t *Tracker) Remaining() float64 { return t.in.Budget() - t.cost }

// Has reports whether the classifier is selected.
func (t *Tracker) Has(c propset.Set) bool { return t.selected[c.Key()] }

// Covered reports whether query qi (index into Instance().Queries()) is
// covered.
func (t *Tracker) Covered(qi int) bool { return t.covered[qi] }

// Residual returns the not-yet-testable part of query qi.
func (t *Tracker) Residual(qi int) propset.Set { return t.residual[qi] }

// RelevantQueries returns the indices of queries containing the classifier
// (i.e. the queries whose coverage it can affect). Callers must not modify
// the returned slice.
func (t *Tracker) RelevantQueries(c propset.Set) []int { return t.relq[c.Key()] }

// Add selects a classifier at the instance's cost, updating all state. It
// reports whether the classifier was newly selected.
func (t *Tracker) Add(c propset.Set) bool {
	k := c.Key()
	if t.selected[k] {
		return false
	}
	t.selected[k] = true
	t.cost += t.in.Cost(c)
	for _, qi := range t.relq[k] {
		if t.covered[qi] {
			continue
		}
		t.residual[qi] = t.residual[qi].Minus(c)
		if t.residual[qi].Empty() {
			t.covered[qi] = true
			t.coverCt++
			t.utility += t.in.Queries()[qi].Utility
		}
	}
	return true
}

// Remove deselects a classifier, recomputing the residuals of the queries
// it is relevant to (each in O(2^l)). It reports whether the classifier
// was selected.
func (t *Tracker) Remove(c propset.Set) bool {
	k := c.Key()
	if !t.selected[k] {
		return false
	}
	delete(t.selected, k)
	t.cost -= t.in.Cost(c)
	for _, qi := range t.relq[k] {
		q := t.in.Queries()[qi]
		var acc propset.Set
		q.Props.Subsets(func(sub propset.Set) {
			if t.selected[sub.Key()] {
				acc = acc.Union(sub)
			}
		})
		res := q.Props.Minus(acc)
		wasCovered := t.covered[qi]
		t.residual[qi] = res
		t.covered[qi] = res.Empty()
		if wasCovered && !t.covered[qi] {
			t.coverCt--
			t.utility -= q.Utility
		}
	}
	return true
}

// Clone returns an independent copy.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{
		in:       t.in,
		selected: make(map[string]bool, len(t.selected)),
		cost:     t.cost,
		residual: append([]propset.Set(nil), t.residual...),
		covered:  append([]bool(nil), t.covered...),
		utility:  t.utility,
		relq:     t.relq, // shared, read-only after New
		coverCt:  t.coverCt,
	}
	for k := range t.selected {
		c.selected[k] = true
	}
	return c
}

// CopyFrom overwrites t's state with o's (both must track the same
// instance).
func (t *Tracker) CopyFrom(o *Tracker) {
	t.selected = make(map[string]bool, len(o.selected))
	for k := range o.selected {
		t.selected[k] = true
	}
	t.cost = o.cost
	t.residual = append(t.residual[:0], o.residual...)
	t.covered = append(t.covered[:0], o.covered...)
	t.utility = o.utility
	t.coverCt = o.coverCt
}

// Reset replaces the selection with exactly the given classifiers.
func (t *Tracker) Reset(classifiers []propset.Set) {
	t.selected = make(map[string]bool)
	t.cost = 0
	t.utility = 0
	t.coverCt = 0
	for qi, q := range t.in.Queries() {
		t.residual[qi] = q.Props
		t.covered[qi] = false
	}
	for _, c := range classifiers {
		t.Add(c)
	}
}

// Solution materializes the tracker as a model.Solution.
func (t *Tracker) Solution() *model.Solution {
	s := model.NewSolution(t.in)
	for _, c := range t.in.Classifiers() {
		if t.selected[c.Props.Key()] {
			s.Add(c.Props)
		}
	}
	return s
}

// SelectedSets returns the selected classifiers as property sets, in the
// instance's deterministic classifier order.
func (t *Tracker) SelectedSets() []propset.Set {
	var out []propset.Set
	for _, c := range t.in.Classifiers() {
		if t.selected[c.Props.Key()] {
			out = append(out, c.Props)
		}
	}
	return out
}

// CoveredQueries returns the property sets of all covered queries.
func (t *Tracker) CoveredQueries() []propset.Set {
	var out []propset.Set
	for qi, q := range t.in.Queries() {
		if t.covered[qi] {
			out = append(out, q.Props)
		}
	}
	return out
}

// MinCoverCost computes, by subset dynamic programming, the minimum
// additional cost of covering query qi given the current selection,
// restricted to allowed classifier keys (nil = all). It returns the cost
// and the classifier sets achieving it (+Inf and nil when impossible).
func (t *Tracker) MinCoverCost(qi int, allowed map[string]bool) (float64, []propset.Set) {
	q := t.in.Queries()[qi].Props
	res := t.residual[qi]
	if res.Empty() {
		return 0, nil
	}
	pos := make(map[propset.ID]uint, res.Len())
	for i, p := range res {
		pos[p] = uint(i)
	}
	full := (1 << uint(res.Len())) - 1

	type cand struct {
		c    propset.Set
		cost float64
		mask int
	}
	var cands []cand
	q.Subsets(func(sub propset.Set) {
		k := sub.Key()
		if t.selected[k] {
			return
		}
		if allowed != nil && !allowed[k] {
			return
		}
		cost := t.in.Cost(sub)
		if math.IsInf(cost, 1) {
			return
		}
		mask := 0
		for _, p := range sub {
			if b, ok := pos[p]; ok {
				mask |= 1 << b
			}
		}
		if mask == 0 {
			return
		}
		cands = append(cands, cand{c: sub.Clone(), cost: cost, mask: mask})
	})

	const inf = math.MaxFloat64
	dp := make([]float64, full+1)
	parent := make([]int, full+1)
	prev := make([]int, full+1)
	for m := 1; m <= full; m++ {
		dp[m] = inf
		parent[m] = -1
	}
	for m := 0; m <= full; m++ {
		if dp[m] == inf {
			continue
		}
		for ci, cd := range cands {
			nm := m | cd.mask
			if nm == m {
				continue
			}
			if c := dp[m] + cd.cost; c < dp[nm] {
				dp[nm] = c
				parent[nm] = ci
				prev[nm] = m
			}
		}
	}
	if dp[full] == inf {
		return math.Inf(1), nil
	}
	var sets []propset.Set
	for m := full; m != 0 && parent[m] >= 0; m = prev[m] {
		sets = append(sets, cands[parent[m]].c)
	}
	return dp[full], sets
}
