// Package heapq is the typed max-heap behind every lazy greedy in the
// solvers: A^BCC's IG1/IG2 passes, the QK heuristics, DkS and densest
// subgraph peeling, MC3, partial cover and the submodular greedy.
//
// Max keeps the sift order of the standard library's heap package
// exactly — strict > comparisons, the left child wins a tie, Pop swaps
// the root to the end before sifting down — so a solver moved onto Max,
// push for push, pops in the same order as before. Min-ordered users
// push the negated key and negate it back when they read it, which is
// exact for every non-NaN float including ±Inf. Unlike the standard
// heap, which boxes every element in an interface, Push and Pop do not
// allocate once the backing array has grown.
package heapq

// Entry is one heap element: an index into the caller's own tables and
// the key it was pushed with.
type Entry struct {
	I   int
	Key float64
}

// Max is a max-heap of entries ordered by Key. The zero value is an empty
// heap. A caller may append entries directly and then call Init; h[0] is
// the maximum whenever Len() > 0.
type Max []Entry

// Len returns the number of entries.
func (h Max) Len() int { return len(h) }

// Init establishes the heap order over entries appended directly.
func (h Max) Init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// Push adds an entry.
func (h *Max) Push(e Entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// Pop removes and returns the entry with the largest Key. It panics on
// an empty heap.
func (h *Max) Pop() Entry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// Reset empties the heap, keeping its backing array.
func (h *Max) Reset() { *h = (*h)[:0] }

func (h Max) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].Key > h[i].Key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h Max) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h[r].Key > h[j].Key {
			j = r
		}
		if !(h[j].Key > h[i].Key) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
