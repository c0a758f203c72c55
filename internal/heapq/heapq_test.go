package heapq

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap is the reference: a container/heap max-heap over Entry. Max
// must pop in exactly its order.
type refHeap []Entry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Key > h[j].Key }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Entry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMatchesContainerHeap drives Max and the container/heap reference
// through the same random push/pop interleavings — keys drawn from a
// handful of values so ties are common, plus ±Inf — and requires the
// same entry, index included, from every Pop.
func TestMatchesContainerHeap(t *testing.T) {
	keys := []float64{0, 1, 1, 2, 2, 2, 3.5, -1, math.Inf(1), math.Inf(-1)}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got Max
		ref := &refHeap{}
		// Half the runs start from append-then-Init, as submod does.
		if seed%2 == 0 {
			for i := rng.Intn(40); i > 0; i-- {
				e := Entry{I: rng.Intn(1000), Key: keys[rng.Intn(len(keys))]}
				got = append(got, e)
				*ref = append(*ref, e)
			}
			got.Init()
			heap.Init(ref)
		}
		for step := 0; step < 400; step++ {
			if got.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, got.Len(), ref.Len())
			}
			if got.Len() > 0 && rng.Intn(3) == 0 {
				g, r := got.Pop(), heap.Pop(ref).(Entry)
				if g != r {
					t.Fatalf("seed %d step %d: Pop %+v, reference %+v", seed, step, g, r)
				}
				continue
			}
			e := Entry{I: rng.Intn(1000), Key: keys[rng.Intn(len(keys))]}
			got.Push(e)
			heap.Push(ref, e)
		}
		for got.Len() > 0 {
			if g, r := got.Pop(), heap.Pop(ref).(Entry); g != r {
				t.Fatalf("seed %d drain: Pop %+v, reference %+v", seed, g, r)
			}
		}
	}
}

// TestNegatedKeyIsMinHeap pins the min-ordered idiom: pushing -key pops
// the smallest key first, ±Inf included, and negating back restores it.
func TestNegatedKeyIsMinHeap(t *testing.T) {
	var h Max
	for i, k := range []float64{3, math.Inf(1), -2, 0, math.Inf(-1), 1} {
		h.Push(Entry{I: i, Key: -k})
	}
	want := []float64{math.Inf(-1), -2, 0, 1, 3, math.Inf(1)}
	for _, w := range want {
		if got := -h.Pop().Key; got != w {
			t.Fatalf("popped %v, want %v", got, w)
		}
	}
}

func TestLazyHeapOrdering(t *testing.T) {
	h := make(Max, 0, 8)
	for _, s := range []float64{3, 1, 4, 1.5, 9, 2.6} {
		h.Push(Entry{I: int(s * 10), Key: s})
	}
	prev := float64(10)
	for h.Len() > 0 {
		e := h.Pop()
		if e.Key > prev {
			t.Fatalf("heap popped %v after %v", e.Key, prev)
		}
		prev = e.Key
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var h Max
	for i := 0; i < 10; i++ {
		h.Push(Entry{I: i, Key: float64(i)})
	}
	c := cap(h)
	h.Reset()
	if h.Len() != 0 || cap(h) != c {
		t.Fatalf("after Reset: len %d cap %d, want 0 and %d", h.Len(), cap(h), c)
	}
}

// TestPushPopDoNotAllocate pins the reason Max exists: once the backing
// array has grown, a Push/Pop cycle allocates nothing.
func TestPushPopDoNotAllocate(t *testing.T) {
	h := make(Max, 0, 64)
	for i := 0; i < 32; i++ {
		h.Push(Entry{I: i, Key: float64(i % 7)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		e := h.Pop()
		e.Key -= 0.5
		h.Push(e)
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop allocate %v per run, want 0", allocs)
	}
}
