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

// deriveDeadEnd derives dead end u's row in a — layered at from's hop,
// its anchor's row repaired from from's — from from's row of u, whose arc
// the delta left alone. Where the anchor's block is from's, so is u's:
// it holds fl(the same cells + hop). Any other block is rewritten cell by
// cell through the cowRow, which copies it only where a cell changes.
func (a *APSP) deriveDeadEnd(from *APSP, u int) cowRow {
	x := a.anchor(u)
	r, now, was := deriveRow(from.rows[u]), a.rows[x], from.rows[x]
	for b, blk := range now.dist {
		if blk == was.dist[b] {
			continue
		}
		o := b << apspShift
		for j, c := range blk[:min(apspBlock, a.n-o)] {
			if v := o + j; v != u {
				r.set(v, c+a.hop)
			}
		}
	}
	return r
}

// arcChange is one link a re-weighting changes, read off its u < v arc:
// its weight in the receiver's fabric and in the new vector. +Inf is an
// absent arc, so a change from +Inf restores the link, one to +Inf
// removes it, and one between two finite weights re-prices it.
type arcChange struct {
	u, v     int
	was, now float64
}

// diffWeights lists the links whose weight differs (!=) between c and wt,
// a weight vector over c's slots, in slot order. A link's two arcs weigh
// alike in every vector over a frozen Graph — keep it so in any vector
// handed to Reweigh — so its u < v arc speaks for both; each parallel
// link is a change of its own.
func (c *CSR) diffWeights(wt []float64) (ch []arcChange) {
	for u := range c.n {
		for e := c.rowStart[u]; e < c.rowStart[u+1]; e++ {
			if v := int(c.to[e]); u < v && c.wt[e] != wt[e] {
				ch = append(ch, arcChange{u: u, v: v, was: c.wt[e], now: wt[e]})
			}
		}
	}
	return ch
}

// deltaKind labels a change list for the observer: structural where a
// link goes to or from +Inf, weight where it stays finite.
func deltaKind(ch []arcChange) DeltaKind {
	structural, weight := false, false
	for _, x := range ch {
		if x.was == Inf || x.now == Inf {
			structural = true
		} else {
			weight = true
		}
	}
	switch {
	case structural && weight:
		return DeltaMixed
	case weight:
		return DeltaWeight
	default:
		return DeltaFault
	}
}

// deltaStats counts what one delta did with its rows. Tests bound the
// repair's work with it.
type deltaStats struct {
	unbuilt int // rows the parent had built that are left unbuilt
	changed int // repaired or derived rows that own a table: a cell changed
	settled int // vertices the repairs' drains settled
	derived int // dead ends' rows derived from their repaired anchors'
}

func (s *deltaStats) add(o deltaStats) {
	s.unbuilt += o.unbuilt
	s.changed += o.changed
	s.settled += o.settled
	s.derived += o.derived
}

// Reweigh returns the APSP matrix over the receiver's fabric under wt, a
// weight vector over its slots as CSR.WithWeights takes it (+Inf is an
// absent arc), derived incrementally from the receiver, and its dirty
// count: the repaired rows that are not the receiver's own, plus the rows
// the receiver had built that are left unbuilt. The caller keeps
// ownership of wt and must not change it while the matrix is in use.
//
// The matrix finds what changed itself, link by link (diffWeights). The
// receiver is never mutated. The rows it had built when the call started
// are derived from its own, copy-on-write (cowRow), and repaired
// (CSR.repairRow): only the vertices whose distance a change moves are
// re-settled, so what a delta copies follows the cells it changes and a
// row it leaves alone stays the receiver's, pointer for pointer. Where
// the receiver and the result are layered at one hop, a dead end whose
// anchor's row is repaired is derived from it instead (deriveDeadEnd),
// with the same sharing. Every other row is left unbuilt, to be built on
// its first read under wt. The repairs fan out over `workers` goroutines
// (≤ 0 = GOMAXPROCS). Every row read is bit-identical to
// AllPairsSequential over the graph without the +Inf links —
// FuzzRepairRows here and FuzzIncrementalAPSP / FuzzWeightDeltaAPSP in
// internal/fault pin this.
//
// Two rules, both properties of the input, leave a row the receiver had
// built unbuilt instead of repairing it:
//
//   - The guard. Repair rests on rows being canonical — a function of the
//     graph, not of the Dijkstra trace (see repair.go) — which holds when
//     every relaxation strictly increases the cost: under the old weights
//     (the receiver's span is finite), under wt, and for wt's weights
//     added to the old rows' distances. strictRelax decides that from the
//     two vectors' weight ranges in O(E). When it fails — a zero weight,
//     or a degrade factor so extreme that 1e300 + 1 == 1e300 — every row
//     is left unbuilt, which is the rebuild by construction.
//   - The change leaves the row's source, an endpoint of a changed link,
//     with at most one live arc: isolated, or a leaf re-attached or
//     re-priced. Every cell of that row changes, and the repair would
//     re-settle them all.
func (a *APSP) Reweigh(wt []float64, workers int) (*APSP, int) {
	out, st := a.reweigh(wt, workers)
	return out, st.unbuilt + st.changed
}

func (a *APSP) reweigh(wt []float64, workers int) (*APSP, deltaStats) {
	n := a.n
	obs := apspDeltaObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}

	next := a.csr.WithWeights(wt)
	ch := a.csr.diffWeights(wt)
	// out is not shared until it returns: its flags are written plainly.
	out := newAPSP(next)
	repair := strictRelax(out.minW, math.Max(a.span, out.span)) // out.span: next's reach, or +Inf
	var stats deltaStats
	if repair && len(ch) == 0 {
		// wt weighs what the receiver's fabric weighs: no row changes.
		for src := range n {
			if a.Built(src) {
				out.rows[src], out.built[src] = a.rows[src], 1
			}
		}
	} else {
		// A changed link's endpoint's live arcs under wt: drop at most one
		// (the second rule); bare at none, so nothing supports its cell.
		drop, bare := make([]bool, n), make([]bool, n)
		for _, x := range ch {
			for _, v := range [2]int{x.u, x.v} {
				k := next.live(v)
				drop[v], bare[v] = k <= 1, k == 0
			}
		}
		// On a matrix layered at the parent's hop, a kept dead end whose
		// anchor is repaired is derived from it after the repairs.
		layered := repair && a.hop > 0 && a.hop == out.hop
		var todo, derive []int
		for src := range n {
			switch x := out.anchor(src); {
			case !a.Built(src):
			case !repair || drop[src]:
				stats.unbuilt++
			case layered && x >= 0 && a.Built(x) && !drop[x]:
				derive = append(derive, src)
			default:
				todo = append(todo, src)
			}
		}
		var mu sync.Mutex
		// Each worker owns a contiguous range of todo, reads only the old
		// matrix, and writes only its own rows of the new one, so the
		// outcome is independent of the worker count.
		if err := parallel.MapChunked(len(todo), workers, func(lo, hi int) error {
			var scratch repairScratch
			var st deltaStats
			for _, src := range todo[lo:hi] {
				r := deriveRow(a.rows[src])
				st.settled += next.repairRow(src, &r, ch, bare, &scratch)
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
			// The repair cannot fail on a valid CSR; a surfaced panic is
			// a kernel bug and must not be swallowed.
			panic(err)
		}
		for _, src := range derive {
			r := out.deriveDeadEnd(a, src)
			out.rows[src], out.built[src] = r.Row, 1
			stats.derived++
			if r.changed() {
				stats.changed++
			}
		}
	}
	if obs != nil {
		(*obs)(deltaKind(ch), n, stats.unbuilt+stats.changed, workers, time.Since(start))
	}
	return out, stats
}
