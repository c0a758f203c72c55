package cover

import (
	"math"
	"sort"

	"repro/internal/heapq"
	"repro/internal/propset"
)

// IG1Queue is the candidate queue of the IG1 greedy (paper §6) and its
// GMC3/ECC versions (§5): every query scored by its utility over the cost
// of its cheapest remaining cover (MinCoverCost), kept in a lazily
// revalidated max-heap. Covered and uncoverable queries score 0 and a
// query whose cover is free scores +Inf. The stopping rule — budget,
// target or best-ratio prefix — stays with the caller, which loops
//
//	for q.Len() > 0 { if qi, ok := q.Pop(); ok { ... q.Select(qi) } }
type IG1Queue struct {
	t     *Tracker
	score []float64
	cost  []float64
	sets  [][]propset.Set
	h     heapq.Max

	// Queries to re-score after a selection: marked dedups, touched
	// keeps them for an ascending-index refresh.
	marked  []bool
	touched []int
}

// NewIG1Queue scores every query of t's instance against t's current
// selection.
func NewIG1Queue(t *Tracker) *IG1Queue {
	n := t.in.NumQueries()
	q := &IG1Queue{
		t:      t,
		score:  make([]float64, n),
		cost:   make([]float64, n),
		sets:   make([][]propset.Set, n),
		marked: make([]bool, n),
	}
	for qi := 0; qi < n; qi++ {
		q.refresh(qi)
	}
	return q
}

func (q *IG1Queue) refresh(qi int) {
	if q.t.Covered(qi) {
		q.score[qi] = 0
		return
	}
	cost, sets := q.t.MinCoverCost(qi, nil)
	q.cost[qi], q.sets[qi] = cost, sets
	switch {
	case math.IsInf(cost, 1):
		q.score[qi] = 0
	case cost == 0:
		q.score[qi] = math.Inf(1)
	default:
		q.score[qi] = q.t.in.Queries()[qi].Utility / cost
	}
	if q.score[qi] > 0 {
		q.h.Push(heapq.Entry{I: qi, Key: q.score[qi]})
	}
}

// Len returns the number of queued entries, stale ones included.
func (q *IG1Queue) Len() int { return q.h.Len() }

// Pop takes the best entry. It returns the query and true when the entry
// is current: the query is uncovered, scores above 0, and its cheapest
// cover is the one Select would add. Otherwise the entry is dropped, or
// re-queued under the query's current score, and ok is false.
func (q *IG1Queue) Pop() (qi int, ok bool) {
	e := q.h.Pop()
	qi = e.I
	if q.t.Covered(qi) || q.score[qi] == 0 {
		return qi, false
	}
	if e.Key > q.score[qi]+1e-12 || e.Key < q.score[qi]-1e-12 {
		q.h.Push(heapq.Entry{I: qi, Key: q.score[qi]})
		return qi, false
	}
	return qi, true
}

// CoverCost returns the cost of qi's cheapest cover as last scored.
func (q *IG1Queue) CoverCost(qi int) float64 { return q.cost[qi] }

// Drop zeroes qi's score, so its queued entries are discarded until a
// selection that can affect qi scores it again.
func (q *IG1Queue) Drop(qi int) { q.score[qi] = 0 }

// Select adds qi's cheapest cover to the tracker and re-scores, in
// ascending query index, every query the added classifiers can affect.
// It returns the added classifiers. Each was unselected: MinCoverCost
// skips selected classifiers, and selecting any subset of qi since then
// would have re-scored qi.
func (q *IG1Queue) Select(qi int) []propset.Set {
	sets := q.sets[qi]
	for _, c := range sets {
		for _, q2 := range q.t.RelevantQueries(c) {
			if !q.marked[q2] {
				q.marked[q2] = true
				q.touched = append(q.touched, q2)
			}
		}
		q.t.Add(c)
	}
	sort.Ints(q.touched)
	for _, q2 := range q.touched {
		q.marked[q2] = false
		q.refresh(q2)
	}
	q.touched = q.touched[:0]
	return sets
}

// IG2Queue is the candidate queue of the IG2 greedy (paper §6, the greedy
// Set Cover of [23]) and its GMC3/ECC versions: every classifier scored
// by the summed utility of the uncovered queries containing it over its
// cost, kept in a lazily revalidated max-heap. A free classifier with
// positive utility scores +Inf. Callers loop as with IG1Queue.
type IG2Queue struct {
	t    *Tracker
	util map[string]float64 // by classifier key: Σ utility of uncovered queries containing it
	h    heapq.Max
	was  []bool // covered flags of a selection's relevant queries, reused
}

// NewIG2Queue scores every classifier of t's instance against the queries
// t has not covered.
func NewIG2Queue(t *Tracker) *IG2Queue {
	q := &IG2Queue{t: t, util: make(map[string]float64)}
	for qi, qu := range t.in.Queries() {
		if t.Covered(qi) {
			continue
		}
		u := qu.Utility
		qu.Props.Subsets(func(sub propset.Set) {
			q.util[sub.Key()] += u
		})
	}
	for ci := range t.in.Classifiers() {
		if s := q.scoreOf(ci); s > 0 {
			q.h.Push(heapq.Entry{I: ci, Key: s})
		}
	}
	return q
}

func (q *IG2Queue) scoreOf(ci int) float64 {
	c := q.t.in.Classifiers()[ci]
	u := q.util[c.Props.Key()]
	if u <= 0 {
		return 0
	}
	if c.Cost == 0 {
		return math.Inf(1)
	}
	return u / c.Cost
}

// Len returns the number of queued entries, stale ones included.
func (q *IG2Queue) Len() int { return q.h.Len() }

// Pop takes the best entry. It returns the classifier index and true when
// the entry is current: the classifier is unselected and its score is
// positive and not below the entry's. Otherwise the entry is dropped, or
// re-queued under the classifier's current score, and ok is false.
func (q *IG2Queue) Pop() (ci int, ok bool) {
	e := q.h.Pop()
	ci = e.I
	if q.t.Has(q.t.in.Classifiers()[ci].Props) {
		return ci, false
	}
	s := q.scoreOf(ci)
	if s == 0 {
		return ci, false
	}
	if e.Key > s+1e-12 {
		q.h.Push(heapq.Entry{I: ci, Key: s})
		return ci, false
	}
	return ci, true
}

// Select adds classifier ci to the tracker and takes the queries it newly
// covers out of every classifier's utility.
func (q *IG2Queue) Select(ci int) {
	in := q.t.in
	c := in.Classifiers()[ci].Props
	rel := q.t.RelevantQueries(c)
	q.was = q.was[:0]
	for _, qi := range rel {
		q.was = append(q.was, q.t.Covered(qi))
	}
	q.t.Add(c)
	for i, qi := range rel {
		if q.t.Covered(qi) && !q.was[i] {
			u := in.Queries()[qi].Utility
			in.Queries()[qi].Props.Subsets(func(sub propset.Set) {
				q.util[sub.Key()] -= u
			})
		}
	}
}
