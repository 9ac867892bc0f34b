package graph

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vnfopt/internal/parallel"
)

// DeltaKind labels what an incremental APSP update changed, for
// instrumentation: fault deltas remove/restore edges, weight deltas
// re-price edges in place, mixed deltas do both in one transition.
type DeltaKind string

const (
	// DeltaFault: edges removed and/or restored (topology events).
	DeltaFault DeltaKind = "fault"
	// DeltaWeight: edge weights changed in place (re-pricing, degradation).
	DeltaWeight DeltaKind = "weight"
	// DeltaMixed: one transition carrying both structural and weight
	// changes (e.g. a degraded link removed in the same fault event).
	DeltaMixed DeltaKind = "mixed"
)

// APSPDeltaObserver receives the outcome of one incremental APSP update:
// what kind of delta ran, the matrix order, the number of dirty rows —
// repaired into tables of their own, or built in the parent and left
// unbuilt — the worker count, and the wall time. Fault and weight deltas
// report through this one hook. Like APSPObserver it is a process-wide
// hook so the graph package stays free of observability dependencies.
type APSPDeltaObserver func(kind DeltaKind, vertices, dirty, workers int, elapsed time.Duration)

var apspDeltaObserver atomic.Pointer[APSPDeltaObserver]

// SetAPSPDeltaObserver installs (or, with nil, removes) the process-wide
// incremental-APSP observer. Safe to call concurrently with updates.
func SetAPSPDeltaObserver(fn APSPDeltaObserver) {
	if fn == nil {
		apspDeltaObserver.Store(nil)
		return
	}
	apspDeltaObserver.Store(&fn)
}

// cowRow is a row being derived from a parent matrix's: it starts as the
// parent's table and takes a copy of the table, then of a block, the
// first time a cell in it changes value. A write that stores the value
// already there copies nothing, so a derived row the delta does not alter
// stays the parent's, pointer for pointer.
type cowRow struct {
	Row      // the derived row; read through Cost
	from Row // the parent's row: what is pointer-equal to it is shared
}

func deriveRow(from Row) cowRow { return cowRow{Row: from, from: from} }

// changed reports whether the row owns its table: whether a cell changed.
func (r *cowRow) changed() bool { return &r.dist[0] != &r.from.dist[0] }

func (r *cowRow) set(v int, x float64) {
	b, i := v>>apspShift, v&apspMask
	blk := r.dist[b]
	if math.Float64bits(blk[i]) == math.Float64bits(x) {
		return
	}
	if blk == r.from.dist[b] {
		blk = r.ownBlock(b)
	}
	blk[i] = x
}

// ownBlock replaces block b, still the parent's, with a copy the row may
// write — in a copy of the table, if the table is still the parent's too.
func (r *cowRow) ownBlock(b int) *distBlock {
	if !r.changed() {
		r.dist = append([]*distBlock(nil), r.from.dist...)
	}
	own := *r.from.dist[b]
	r.dist[b] = &own
	return &own
}

// EdgeDelta is the full edge difference between the graph an APSP
// matrix was built over and the graph it is being repaired for. Vertex
// failures and revivals are expressed through their incident edges; the
// vertex set itself never changes.
//
// Removed may name a pair of parallel edges once; Restored and Reweighted
// list each edge with its own weight.
type EdgeDelta struct {
	// Removed lists edges present in the old graph but absent from the
	// new. Their weights are never read.
	Removed []EdgeRecord
	// Restored lists edges absent from the old graph but present in the
	// new, with their weights in the new graph.
	Restored []EdgeRecord
	// Reweighted lists edges present in both whose weight changed, each
	// carrying the NEW weight; the old weight is never needed. An edge
	// whose weight did not change may be listed: it costs a row work, not
	// bits.
	Reweighted []EdgeRecord
}

// kind labels the delta for the observer.
func (d EdgeDelta) kind() DeltaKind {
	structural := len(d.Removed)+len(d.Restored) > 0
	switch {
	case structural && len(d.Reweighted) > 0:
		return DeltaMixed
	case len(d.Reweighted) > 0:
		return DeltaWeight
	default:
		return DeltaFault
	}
}

// deltaStats counts what one delta did with its rows. Tests bound the
// repair's work with it.
type deltaStats struct {
	unbuilt int // rows the parent had built that are left unbuilt
	changed int // repaired rows that own a table: a cell changed
	settled int // vertices the repairs' drains settled
}

func (s *deltaStats) add(o deltaStats) {
	s.unbuilt += o.unbuilt
	s.changed += o.changed
	s.settled += o.settled
}

// ApplyEdgeDeltas builds the APSP matrix of `next` incrementally from
// the cached matrix of the graph next was derived from; d is the full
// edge delta between the two graphs. It returns the new matrix and its
// dirty count: the repaired rows that are not the receiver's own, plus
// the rows the receiver had built that are left unbuilt.
//
// The receiver is never mutated. The rows it had built when the delta
// started are derived from its own, copy-on-write (cowRow), and repaired
// (CSR.repairRow): only the vertices whose distance the delta moves are
// re-settled, so what a delta copies follows the cells it changes and a
// row it leaves alone stays the receiver's, pointer for pointer. Every other row is left unbuilt, to be
// built on its first read over next. The repairs fan out over `workers`
// goroutines (≤ 0 = GOMAXPROCS). Every row read is bit-identical to
// AllPairsSequential(next) at any worker count — FuzzRepairRows here and
// FuzzIncrementalAPSP / FuzzWeightDeltaAPSP in internal/fault pin this.
//
// Two rules, both properties of the input, leave a row the receiver had
// built unbuilt instead of repairing it:
//
//   - The guard. Repair rests on rows being canonical — a function of the
//     graph, not of the Dijkstra trace (see repair.go) — which holds when
//     every relaxation strictly increases the cost: over the old graph
//     (the receiver's span is finite), over next, and for next's weights
//     added to the old rows' distances. strictRelax decides that from the
//     two graphs' weight ranges in O(E). When it fails — a zero weight, or
//     a degrade factor so extreme that 1e300 + 1 == 1e300 — every row is
//     left unbuilt, which is the rebuild by construction.
//   - The delta leaves the row's source, an endpoint of a record, with at
//     most one edge: isolated, or a leaf re-attached or re-priced. Every
//     cell of that row changes, and the repair would re-settle them all.
func (a *APSP) ApplyEdgeDeltas(next *Graph, d EdgeDelta, workers int) (*APSP, int) {
	out, st := a.applyEdgeDeltas(next, d, workers)
	return out, st.unbuilt + st.changed
}

func (a *APSP) applyEdgeDeltas(next *Graph, d EdgeDelta, workers int) (*APSP, deltaStats) {
	n := a.n
	if next.Order() != n {
		panic("graph: ApplyEdgeDeltas vertex count mismatch")
	}
	obs := apspDeltaObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}

	minW, reach := next.weightBounds()
	// out is not shared until it returns: its flags are written plainly.
	out := newAPSP(n, canonicalSpan(minW, reach), a.csr)
	repair := strictRelax(minW, math.Max(a.span, reach))
	var stats deltaStats
	if repair && len(d.Removed)+len(d.Restored)+len(d.Reweighted) == 0 {
		// A delta that names no edge changes no row, and a.csr is next's.
		for src := range n {
			if a.Built(src) {
				out.rows[src], out.built[src] = a.rows[src], 1
			}
		}
	} else {
		drop := make([]bool, n)
		for _, recs := range [3][]EdgeRecord{d.Removed, d.Restored, d.Reweighted} {
			for _, e := range recs {
				drop[e.U] = drop[e.U] || next.degree(e.U) <= 1
				drop[e.V] = drop[e.V] || next.degree(e.V) <= 1
			}
		}
		var todo []int
		for src := range n {
			switch {
			case !a.Built(src):
			case !repair || drop[src]:
				stats.unbuilt++
			default:
				todo = append(todo, src)
			}
		}
		out.csr = next.Freeze()
		var mu sync.Mutex
		// Each worker owns a contiguous range of todo, reads only the old
		// matrix, and writes only its own rows of the new one, so the
		// outcome is independent of the worker count.
		if err := parallel.MapChunked(len(todo), workers, func(lo, hi int) error {
			var scratch repairScratch
			var st deltaStats
			for _, src := range todo[lo:hi] {
				r := deriveRow(a.rows[src])
				st.settled += out.csr.repairRow(src, &r, d, &scratch)
				out.rows[src], out.built[src] = r.Row, 1
				if r.changed() {
					st.changed++
				}
			}
			mu.Lock()
			stats.add(st)
			mu.Unlock()
			return nil
		}); err != nil {
			// The repair cannot fail on a valid Graph; a surfaced panic is
			// a kernel bug and must not be swallowed.
			panic(err)
		}
	}
	if obs != nil {
		(*obs)(d.kind(), n, stats.unbuilt+stats.changed, workers, time.Since(start))
	}
	return out, stats
}
