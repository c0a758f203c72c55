// Package partial implements the partial-cover extension of BCC that the
// paper's conclusion (Section 8) lists as future work: instead of the
// all-or-nothing utility of the base model, a query q whose conjunction is
// partially testable yields a fraction of its utility, U(q) · g(k/|q|),
// where k is the number of covered conjuncts and g a gain curve with
// g(0) = 0 and g(1) = 1.
//
// With the Threshold gain the model coincides exactly with BCC. With any
// monotone gain the objective is monotone; with a concave gain it is
// submodular in the selected classifier set, so the cost-benefit lazy
// greedy (plus best-single-classifier fallback) enjoys the classic
// 1/2·(1−1/e) guarantee for the budgeted maximization. The package
// provides that solver, a random baseline, and an exhaustive reference.
package partial

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/guard"
	"repro/internal/heapq"
	"repro/internal/model"
	"repro/internal/propset"
)

// Gain maps the covered fraction of a query's conjuncts to the fraction of
// its utility earned. Implementations must be monotone with Gain(0) = 0
// and Gain(1) = 1.
type Gain func(covered, total int) float64

// Threshold is the base BCC semantics: utility only on full coverage.
func Threshold(covered, total int) float64 {
	if covered >= total {
		return 1
	}
	return 0
}

// Linear earns utility proportionally to the covered fraction.
func Linear(covered, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// Sqrt is a concave gain: early conjuncts are worth more (a result set
// filtered by most of the intended conditions is already useful).
func Sqrt(covered, total int) float64 {
	if total == 0 {
		return 0
	}
	return math.Sqrt(float64(covered) / float64(total))
}

// AllButOne earns nothing until at most one conjunct is missing, 60% at
// one missing, and everything on full coverage — modeling interfaces that
// can post-filter a single missing condition cheaply.
func AllButOne(covered, total int) float64 {
	switch {
	case covered >= total:
		return 1
	case covered == total-1:
		return 0.6
	default:
		return 0
	}
}

// Result reports a partial-cover solver run.
type Result struct {
	Solution *model.Solution
	// Utility is the gained (partial) utility under the configured Gain.
	Utility float64
	// Cost is the total construction cost.
	Cost float64
	// Duration is the wall-clock solve time.
	Duration time.Duration
	// Status reports how the run ended; a non-Complete result still holds
	// the (budget-feasible) selection accumulated so far.
	Status guard.Status
	// Err is the context error or contained panic for a non-Complete run.
	Err error
}

// state tracks per-query covered-conjunct counts incrementally.
type state struct {
	in      *model.Instance
	gain    Gain
	sel     map[string]bool
	covered []propset.Set // covered part of each query
	utility float64
	cost    float64
	relq    map[string][]int
}

func newState(in *model.Instance, g Gain) *state {
	st := &state{
		in:      in,
		gain:    g,
		sel:     make(map[string]bool),
		covered: make([]propset.Set, in.NumQueries()),
		relq:    make(map[string][]int),
	}
	for qi, q := range in.Queries() {
		q.Props.Subsets(func(sub propset.Set) {
			st.relq[sub.Key()] = append(st.relq[sub.Key()], qi)
		})
	}
	return st
}

func (st *state) add(c propset.Set) {
	k := c.Key()
	if st.sel[k] {
		return
	}
	st.sel[k] = true
	st.cost += st.in.Cost(c)
	for _, qi := range st.relq[k] {
		q := st.in.Queries()[qi]
		old := st.covered[qi]
		nw := old.Union(c)
		if nw.Len() == old.Len() {
			continue
		}
		st.covered[qi] = nw
		st.utility += q.Utility *
			(st.gain(nw.Len(), q.Props.Len()) - st.gain(old.Len(), q.Props.Len()))
	}
}

// marginal returns the utility gain of adding c without mutating state.
func (st *state) marginal(c propset.Set) float64 {
	if st.sel[c.Key()] {
		return 0
	}
	var gain float64
	for _, qi := range st.relq[c.Key()] {
		q := st.in.Queries()[qi]
		old := st.covered[qi]
		nw := old.Union(c)
		if nw.Len() == old.Len() {
			continue
		}
		gain += q.Utility *
			(st.gain(nw.Len(), q.Props.Len()) - st.gain(old.Len(), q.Props.Len()))
	}
	return gain
}

func (st *state) result(start time.Time) Result {
	s := model.NewSolution(st.in)
	for _, c := range st.in.Classifiers() {
		if st.sel[c.Props.Key()] {
			s.Add(c.Props)
		}
	}
	return Result{Solution: s, Utility: st.utility, Cost: st.cost, Duration: time.Since(start)}
}

// Solve maximizes partial-cover utility within the instance's budget via
// cost-benefit lazy greedy with a best-single-classifier fallback. For
// concave gains this is the classic ½(1−1/e)-approximation of budgeted
// submodular maximization.
func Solve(in *model.Instance, g Gain) Result {
	return SolveCtx(context.Background(), in, g)
}

// SolveCtx is Solve under a context: on deadline expiry or cancellation it
// returns the (budget-feasible) greedy selection accumulated so far, with
// Result.Status reporting why it stopped; contained panics surface as
// Status Recovered.
func SolveCtx(ctx context.Context, in *model.Instance, gfn Gain) (res Result) {
	start := time.Now()
	if gfn == nil {
		gfn = Threshold
	}
	g := guard.New(ctx)
	if g.Tripped() {
		return Result{
			Solution: model.NewSolution(in),
			Duration: time.Since(start),
			Status:   g.Status(),
			Err:      g.Err(),
		}
	}

	var st *state
	finish := func() Result {
		var r Result
		if st != nil {
			r = st.result(start)
		} else {
			r = Result{Solution: model.NewSolution(in), Duration: time.Since(start)}
		}
		r.Status = g.Status()
		r.Err = g.Err()
		return r
	}
	defer func() {
		if p := recover(); p != nil {
			g.NotePanic(p)
			res = finish()
		}
	}()
	guard.Inject("partial.solve")

	st = newState(in, gfn)
	// Free classifiers first.
	for _, c := range in.Classifiers() {
		if c.Cost == 0 {
			st.add(c.Props)
		}
	}

	cls := in.Classifiers()
	scoreOf := func(ci int) float64 {
		c := cls[ci]
		m := st.marginal(c.Props)
		if m <= 0 {
			return 0
		}
		if c.Cost == 0 {
			return math.Inf(1)
		}
		return m / c.Cost
	}
	var h heapq.Max
	for ci := range cls {
		if sc := scoreOf(ci); sc > 0 {
			h.Push(heapq.Entry{I: ci, Key: sc})
		}
	}
	for h.Len() > 0 {
		if g.Check() {
			return finish()
		}
		e := h.Pop()
		c := cls[e.I]
		if st.sel[c.Props.Key()] {
			continue
		}
		sc := scoreOf(e.I)
		if sc <= 0 {
			continue
		}
		if e.Key > sc+1e-12 {
			h.Push(heapq.Entry{I: e.I, Key: sc}) // stale (marginals only shrink)
			continue
		}
		if c.Cost > in.Budget()-st.cost+1e-9 {
			continue
		}
		st.add(c.Props)
	}
	greedy := finish()
	if g.Tripped() {
		return greedy
	}

	// Fallback: the single best affordable classifier (restores the
	// approximation bound when one huge item dominates).
	st2 := newState(in, gfn)
	for _, c := range in.Classifiers() {
		if c.Cost == 0 {
			st2.add(c.Props)
		}
	}
	bestCi, bestGain := -1, 0.0
	for ci, c := range cls {
		if c.Cost > in.Budget()+1e-9 {
			continue
		}
		if m := st2.marginal(c.Props); m > bestGain {
			bestCi, bestGain = ci, m
		}
	}
	if bestCi >= 0 {
		st2.add(cls[bestCi].Props)
		if single := st2.result(start); single.Utility > greedy.Utility {
			single.Status = g.Status()
			single.Err = g.Err()
			return single
		}
	}
	return greedy
}

// SolveRand is the random baseline under partial-cover semantics.
func SolveRand(in *model.Instance, g Gain, seed int64) Result {
	start := time.Now()
	if g == nil {
		g = Threshold
	}
	rng := rand.New(rand.NewSource(seed))
	st := newState(in, g)
	pool := make([]propset.Set, 0, len(in.Classifiers()))
	for _, c := range in.Classifiers() {
		pool = append(pool, c.Props)
	}
	for len(pool) > 0 {
		i := rng.Intn(len(pool))
		c := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if st.sel[c.Key()] || in.Cost(c) > in.Budget()-st.cost+1e-9 {
			continue
		}
		st.add(c)
	}
	return st.result(start)
}

// BruteForce solves small instances exactly under partial-cover semantics.
func BruteForce(in *model.Instance, g Gain) (Result, error) {
	start := time.Now()
	if g == nil {
		g = Threshold
	}
	cls := in.Classifiers()
	if len(cls) > 24 {
		return Result{}, fmt.Errorf("partial: BruteForce limited to 24 classifiers, instance has %d", len(cls))
	}
	best := newState(in, g)
	for _, c := range cls {
		if c.Cost == 0 {
			best.add(c.Props)
		}
	}
	bestRes := best.result(start)

	var rec func(idx int, st *state)
	rec = func(idx int, st *state) {
		if st.utility > bestRes.Utility {
			bestRes = st.result(start)
		}
		if idx >= len(cls) {
			return
		}
		rec(idx+1, st)
		c := cls[idx]
		if c.Cost > 0 && c.Cost <= in.Budget()-st.cost+1e-9 && !st.sel[c.Props.Key()] {
			cp := cloneState(st)
			cp.add(c.Props)
			rec(idx+1, cp)
		}
	}
	root := newState(in, g)
	for _, c := range cls {
		if c.Cost == 0 {
			root.add(c.Props)
		}
	}
	rec(0, root)
	return bestRes, nil
}

func cloneState(st *state) *state {
	cp := &state{
		in:      st.in,
		gain:    st.gain,
		sel:     make(map[string]bool, len(st.sel)),
		covered: append([]propset.Set(nil), st.covered...),
		utility: st.utility,
		cost:    st.cost,
		relq:    st.relq,
	}
	for k := range st.sel {
		cp.sel[k] = true
	}
	return cp
}
