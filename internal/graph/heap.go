package graph

// heapItem is a (vertex, tentative cost) pair in the Dijkstra priority queue.
type heapItem struct {
	v    int
	cost float64
}

// less is the heap's strict total order: primarily by cost, with equal
// costs broken by vertex ID. The tie-break is not an optimization — it is
// a correctness requirement of the incremental APSP layer. Where
// relaxations strictly increase the cost, vertices settle in exactly
// (cost, vertex) order, so the predecessor a full run leaves at v is the
// tight neighbour smallest in that order — a rule CSR.pred applies to
// final distances without replaying the run (see repair.go), which is
// what lets a row store its costs alone, and APSP.ApplyEdgeDeltas repair
// a row instead of re-running it.
func less(a, b heapItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.v < b.v
}

// costHeap is a hand-rolled binary min-heap on (cost, vertex). It avoids
// the interface boxing of container/heap on the hottest path in the
// library (all-pairs shortest paths over fat-tree PPDCs).
type costHeap struct {
	items []heapItem
}

func (h *costHeap) Len() int { return len(h.items) }

func (h *costHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *costHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < last && less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
