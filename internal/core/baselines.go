package core

import (
	"math/rand"
	"time"

	"repro/internal/cover"
	"repro/internal/guard"
	"repro/internal/model"
	"repro/internal/propset"
)

// SolveRand is the RAND baseline: repeatedly select one uniformly random
// classifier among those whose selection does not exceed the budget, until
// none fits. (A classifier that has become unaffordable can never become
// affordable again, so rejected candidates are discarded permanently.)
func SolveRand(in *model.Instance, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	t := cover.New(in)
	pool := make([]propset.Set, 0, len(in.Classifiers()))
	for _, c := range in.Classifiers() {
		pool = append(pool, c.Props)
	}
	steps := 0
	for len(pool) > 0 {
		i := rng.Intn(len(pool))
		c := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if t.Has(c) || in.Cost(c) > t.Remaining()+1e-9 {
			continue
		}
		t.Add(c)
		steps++
	}
	return resultFrom(t, steps, 0, start)
}

// SolveIG1 is the IG1 baseline: an iterative greedy that, in each round,
// computes for every uncovered query the least costly classifier set that
// covers it (counting only not-yet-selected classifiers) and selects the
// set with the best utility-to-cost ratio that fits the remaining budget.
func SolveIG1(in *model.Instance) Result {
	start := time.Now()
	t := cover.New(in)
	steps := ig1Fill(nil, t)
	return resultFrom(t, steps, 0, start)
}

// IG1Fill runs the IG1 greedy selection loop on an existing tracker —
// which may already hold free, warm-started or previously selected
// classifiers — until no further query cover fits the remaining budget,
// stopping early when the guard trips (g may be nil). It returns the
// number of covers selected. Exported for the evolutionary and
// submodular solvers (internal/evo, internal/submod), which use it both
// as a seeding heuristic and as their never-worse-than-IG1 anytime
// floor.
func IG1Fill(g *guard.Guard, t *cover.Tracker) int { return ig1Fill(g, t) }

// ig1Fill runs the IG1 selection loop on an existing tracker until no
// further query cover fits the remaining budget, returning the number of
// covers selected. It is both the IG1 baseline and the leftover-budget
// completion pass of A^BCC.
func ig1Fill(g *guard.Guard, t *cover.Tracker) int {
	q := cover.NewIG1Queue(t)
	steps := 0
	for q.Len() > 0 {
		if g.Check() {
			break
		}
		qi, ok := q.Pop()
		if !ok {
			continue
		}
		if q.CoverCost(qi) > t.Remaining()+1e-9 {
			q.Drop(qi) // cover may get cheaper later; it will be refreshed
			continue
		}
		q.Select(qi)
		steps++
	}
	return steps
}

// SolveIG2 is the IG2 baseline (the greedy Set Cover of [23] adapted to
// the budgeted setting): in each round select the single classifier
// maximizing the ratio between the summed utilities of the uncovered
// queries containing it and its cost, subject to the remaining budget.
func SolveIG2(in *model.Instance) Result {
	start := time.Now()
	t := cover.New(in)
	q := cover.NewIG2Queue(t)
	steps := 0
	for q.Len() > 0 {
		ci, ok := q.Pop()
		if !ok {
			continue
		}
		if in.Classifiers()[ci].Cost > t.Remaining()+1e-9 {
			continue // permanently unaffordable
		}
		q.Select(ci)
		steps++
	}
	return resultFrom(t, steps, 0, start)
}
