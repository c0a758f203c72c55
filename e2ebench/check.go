package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/api"
	"repro/internal/dataset"
)

// planTable is an instance as the wire format states it, indexed for
// checking plans from outside the program: nothing here calls the
// solver's own accounting (internal/model, internal/cover).
type planTable struct {
	budget  float64
	queries []tableQuery
	costs   map[string]float64 // classifier key → cost; +Inf = excluded
	def     *dataset.FileDefault
}

type tableQuery struct {
	props   []string // sorted
	utility float64
}

func propKey(props []string) string { return strings.Join(props, "\x00") }

func sortedCopy(props []string) []string {
	s := append([]string(nil), props...)
	sort.Strings(s)
	return s
}

func newPlanTable(ff dataset.FileFormat) *planTable {
	t := &planTable{budget: ff.Budget, costs: make(map[string]float64, len(ff.Costs)), def: ff.Default}
	for _, q := range ff.Queries {
		t.queries = append(t.queries, tableQuery{props: sortedCopy(q.Props), utility: q.Utility})
	}
	for _, c := range ff.Costs {
		cost := c.Cost
		if c.Inf {
			cost = math.Inf(1)
		}
		t.costs[propKey(sortedCopy(c.Props))] = cost
	}
	return t
}

// cost prices one classifier: its listed cost, else the default model.
func (t *planTable) cost(props []string) (float64, bool) {
	if c, ok := t.costs[propKey(props)]; ok {
		return c, !math.IsInf(c, 1)
	}
	if t.def != nil {
		return t.def.Cost + t.def.PerProp*float64(len(props)), true
	}
	return 0, false
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check recomputes a complete plan's cost, utility and covered count
// from the instance and requires C(S) ≤ B and agreement with what the
// response reports. It returns the recomputed utility.
func (t *planTable) check(resp *api.SolveResponse) (float64, error) {
	if resp.Status != "complete" {
		return 0, fmt.Errorf("status %q, want complete", resp.Status)
	}
	if !near(resp.Budget, t.budget) {
		return 0, fmt.Errorf("budget %v, instance says %v", resp.Budget, t.budget)
	}
	selected := make(map[string]bool, len(resp.Classifiers))
	total := 0.0
	for _, c := range resp.Classifiers {
		props := sortedCopy(c.Props)
		key := propKey(props)
		if len(props) == 0 || selected[key] {
			return 0, fmt.Errorf("classifier %v is empty or repeated", c.Props)
		}
		selected[key] = true
		cost, ok := t.cost(props)
		if !ok {
			return 0, fmt.Errorf("classifier %v is not buildable in this instance", c.Props)
		}
		if !near(cost, c.Cost) {
			return 0, fmt.Errorf("classifier %v reports cost %v, instance says %v", c.Props, c.Cost, cost)
		}
		total += cost
	}
	if total > t.budget+1e-9*math.Max(1, t.budget) {
		return 0, fmt.Errorf("plan cost %v exceeds budget %v", total, t.budget)
	}
	if !near(resp.Cost, total) {
		return 0, fmt.Errorf("reported cost %v, recomputed %v", resp.Cost, total)
	}
	// A query counts when the selected classifiers that are subsets of it
	// together cover all of its properties.
	utility, covered := 0.0, 0
	for _, q := range t.queries {
		full := 1<<len(q.props) - 1
		union := 0
		for mask := 1; mask <= full && union != full; mask++ {
			if union|mask == union {
				continue
			}
			sub := make([]string, 0, len(q.props))
			for i, p := range q.props {
				if mask&(1<<i) != 0 {
					sub = append(sub, p)
				}
			}
			if selected[propKey(sub)] {
				union |= mask
			}
		}
		if union == full {
			utility += q.utility
			covered++
		}
	}
	if !near(resp.Utility, utility) || resp.Covered != covered {
		return 0, fmt.Errorf("reported utility %v over %d queries, recomputed %v over %d",
			resp.Utility, resp.Covered, utility, covered)
	}
	return utility, nil
}
