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
// those the delta could neither carry over nor patch, repaired or re-run
// — the worker count, and the wall time. Fault and weight
// deltas report through this one hook — there is no second registration
// point per delta flavor. Like APSPObserver it is a process-wide hook so
// the graph package stays free of observability dependencies.
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

// deltaPlan classifies one edge delta against the old filtered graph.
// All index slices are over the vertex set of the (unchanged) vertex IDs.
type deltaPlan struct {
	// isolated[x]: every old edge of x was removed, so x has degree zero
	// in the new graph. Clean rows handle these by patching column x to
	// unreachable instead of re-running Dijkstra.
	isolated []bool
	isoList  []int32
	// pendant[v] >= 0: v was isolated in the old graph and the delta
	// restores exactly one edge {pendant[v], v}; clean rows patch column
	// v to dist(s, pendant[v]) + pendantW[v] instead of recomputing.
	pendant  []int32
	pendantW []float64
	pendList []int32
	// links are the removed edges with neither endpoint isolated: the
	// classic dirty test (is it a tree edge of s?) applies.
	links []EdgeRecord
	// grown are the restored edges with no pendant endpoint: the
	// distance/tie test applies.
	grown []EdgeRecord
	// reweighted are edges present in both graphs whose weight changed,
	// carrying the NEW weight. The dirty test is direction-agnostic:
	// tree edges always dirty (covers increases), and the restored-edge
	// improvement/tie-flip test on the new weight covers decreases.
	reweighted []EdgeRecord
	// childCand lists the only columns whose predecessor can be an
	// isolated vertex: the surviving old neighbors of the isolated set.
	// prev[c] == x requires edge {x,c}, and every old edge of an
	// isolated x is in the removed list, so scanning these columns is
	// equivalent to scanning all n.
	childCand []int32
	// forced rows always re-run in full: isolated and pendant vertices'
	// own rows, where every cell changes and a repair would save nothing.
	forced []int32
}

// kind labels the plan for the delta observer. It must be read before
// splitPendantReweights moves pendant re-weights into the pendant patch
// lists, which would otherwise misread as structural.
func (p *deltaPlan) kind() DeltaKind {
	structural := len(p.links) > 0 || len(p.grown) > 0 || len(p.isoList) > 0 || len(p.pendList) > 0
	switch {
	case structural && len(p.reweighted) > 0:
		return DeltaMixed
	case len(p.reweighted) > 0:
		return DeltaWeight
	default:
		return DeltaFault
	}
}

// planDeltas splits the raw removed/restored lists into the patchable
// and generic cases. Old degrees are reconstructed from the new graph
// plus the delta, so callers never need to retain the old filtered graph.
func planDeltas(next *Graph, d EdgeDelta) *deltaPlan {
	n := next.Order()
	p := &deltaPlan{
		isolated:   make([]bool, n),
		pendant:    make([]int32, n),
		reweighted: d.Reweighted,
	}
	for i := range p.pendant {
		p.pendant[i] = -1
	}
	removedAt := make([]int32, n)
	restoredAt := make([]int32, n)
	for _, e := range d.Removed {
		removedAt[e.U]++
		removedAt[e.V]++
	}
	for _, e := range d.Restored {
		restoredAt[e.U]++
		restoredAt[e.V]++
	}
	for x := 0; x < n; x++ {
		if removedAt[x] > 0 && next.Degree(x) == 0 {
			p.isolated[x] = true
			p.isoList = append(p.isoList, int32(x))
			p.forced = append(p.forced, int32(x))
		}
	}
	p.pendantW = make([]float64, n)
	for _, e := range d.Restored {
		for _, side := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			v, u := side[0], side[1]
			// v gains its single edge back and had none before: a pendant
			// attachment whose column is an exact one-hop patch.
			if restoredAt[v] == 1 && removedAt[v] == 0 && next.Degree(v) == 1 {
				p.pendant[v] = int32(u)
				p.pendantW[v] = e.Weight
				p.pendList = append(p.pendList, int32(v))
				p.forced = append(p.forced, int32(v))
			}
		}
	}
	var seenCand []bool
	for _, e := range d.Removed {
		if !p.isolated[e.U] && !p.isolated[e.V] {
			p.links = append(p.links, e)
			continue
		}
		if len(seenCand) == 0 {
			seenCand = make([]bool, n)
		}
		for _, c := range [2]int{e.U, e.V} {
			if !p.isolated[c] && !seenCand[c] {
				seenCand[c] = true
				p.childCand = append(p.childCand, int32(c))
			}
		}
	}
	for _, e := range d.Restored {
		if p.pendant[e.U] < 0 && p.pendant[e.V] < 0 {
			p.grown = append(p.grown, e)
		}
	}
	return p
}

// splitPendantReweights moves re-weighted edges with a degree-1 endpoint
// out of the generic reweighted list and into the pendant patch lists.
// A degree-1 vertex v is always a leaf of every shortest-path tree —
// the only path into it is its single edge {u,v} — so re-pricing that
// edge changes exactly column v of every row: dist(s,v) = dist(s,u)+w',
// the same final-relax float expression the full Dijkstra evaluates.
// Only v's own row recomputes (its trace accumulates the new first-hop
// weight in a different association order). Without this split a
// pendant tree edge would dirty every source — in host-attached fabrics
// (fat trees), where congestion pricing touches host uplinks every
// epoch, that degenerates the weight-delta path into a full rebuild.
//
// Zero-weight pendant edges stay in the generic list: with w'=0 a relax
// back out of the leaf could tie-flip the neighbor's predecessor, which
// the column patch cannot express.
func (p *deltaPlan) splitPendantReweights(next *Graph) {
	var kept []EdgeRecord
	for i, e := range p.reweighted {
		pu, pv := next.Degree(e.U) == 1, next.Degree(e.V) == 1
		if (!pu && !pv) || !(e.Weight > 0) {
			if kept != nil {
				kept = append(kept, e)
			}
			continue
		}
		// Copy-on-first-hit: the reweighted slice belongs to the caller.
		if kept == nil {
			kept = append(make([]EdgeRecord, 0, len(p.reweighted)-1), p.reweighted[:i]...)
		}
		if pu && pv {
			// An isolated K2 component: no other source reaches either
			// endpoint (their columns stay Inf in every clean row), and
			// patching either row from the other is circular — both
			// recompute.
			p.forced = append(p.forced, int32(e.U), int32(e.V))
			continue
		}
		v, u := e.U, e.V
		if pv {
			v, u = e.V, e.U
		}
		p.pendant[v] = int32(u)
		p.pendantW[v] = e.Weight
		p.pendList = append(p.pendList, int32(v))
		p.forced = append(p.forced, int32(v))
	}
	if kept != nil {
		p.reweighted = kept
	}
}

// rowDirty reports whether source s's cached row can survive the delta.
// It inspects only s's old row; see ApplyEdgeDeltas for the correctness
// argument of each test.
func (p *deltaPlan) rowDirty(row apspRow) bool {
	// A removed edge invalidates s exactly when it is a tree edge: the
	// prev row references it, so the rebuilt row cannot be identical. A
	// removed non-tree edge never decides a settlement (its relaxations
	// were no-ops or were overwritten), and with the heap's total order
	// the stale entries it leaves behind cannot reorder equal-cost pops.
	for _, e := range p.links {
		if int(row.p(e.V)) == e.U || int(row.p(e.U)) == e.V {
			return true
		}
	}
	// A group of vertices losing every edge invalidates s only if one of
	// them routed s's tree onward to a surviving vertex: then that
	// subtree must re-route (or become unreachable by another path).
	// Otherwise the group members are leaves of s's tree and their
	// columns patch to unreachable. Only the isolated set's surviving
	// old neighbors can have such a predecessor, so only they are
	// checked.
	for _, c := range p.childCand {
		if x := row.p(int(c)); x >= 0 && p.isolated[x] {
			return true
		}
	}
	// A restored edge {u,v} invalidates s when it strictly shortens a
	// distance, or creates an equal-cost alternative that wins the
	// deterministic tie-break: the first settlement among equal costs
	// comes from the predecessor popped earliest in (cost, vertex) order,
	// so the incumbent prev[v] loses exactly when (d(u), u) precedes
	// (d(prev[v]), prev[v]).
	for _, e := range p.grown {
		if relaxWins(row, e) {
			return true
		}
	}
	// A re-weighted edge invalidates s when it is a tree edge (any
	// weight change on a tree edge moves the subtree's distances, and a
	// weight *increase* on a tree edge is dirty even when the distances
	// survive via an equal alternative — the trace changes shape), or
	// when its NEW weight strictly improves or tie-flips a settled
	// distance (the restored-edge test: a decrease is a restore from the
	// old weight's point of view). An increased non-tree edge fails both
	// tests and is provably clean: its relaxations lost under the old
	// weight (dist[v] ≤ dist[u]+w_old for every settled pair) and lose
	// harder under a larger one, so no test is needed on the old weight
	// and callers never have to supply it.
	for _, e := range p.reweighted {
		if int(row.p(e.V)) == e.U || int(row.p(e.U)) == e.V {
			return true
		}
		if relaxWins(row, e) {
			return true
		}
	}
	return false
}

// relaxWins reports whether edge e at its (new) weight would beat the
// row's settled distances in a fresh Dijkstra run: a strict improvement
// of either endpoint from the other, or an equal-cost relaxation that
// wins the (cost, vertex) tie-break against the incumbent predecessor.
func relaxWins(row apspRow, e EdgeRecord) bool {
	du, dv := row.d(e.U), row.d(e.V)
	uInf, vInf := math.IsInf(du, 1), math.IsInf(dv, 1)
	if uInf && vInf {
		// An edge between two vertices s cannot reach creates no
		// s-path: any path from s to either endpoint would have to
		// reach one of them without the new edge first.
		return false
	}
	if !uInf {
		if t := du + e.Weight; t < dv {
			return true
		} else if t == dv && tieFlips(row, e.U, e.V) {
			return true
		}
	}
	if !vInf {
		if t := dv + e.Weight; t < du {
			return true
		} else if t == du && tieFlips(row, e.V, e.U) {
			return true
		}
	}
	return false
}

// tieFlips reports whether new equal-cost predecessor u would replace
// v's incumbent predecessor under the heap's (cost, vertex) total order.
func tieFlips(row apspRow, u, v int) bool {
	p := row.p(v)
	if p < 0 {
		// v is the source itself: relaxations into the source never win
		// (its distance 0 cannot strictly improve).
		return false
	}
	du, dp := row.d(u), row.d(int(p))
	return du < dp || (du == dp && int32(u) < p)
}

// cowRow is a row being derived from a parent matrix's: it starts as the
// parent's two tables and takes a copy of a table, then of a block, the
// first time a cell in it changes value. A write that stores the value
// already there copies nothing — the repair re-derives many prev cells
// that come out unchanged — so a derived row the delta does not alter
// stays the parent's, pointer for pointer.
type cowRow struct {
	apspRow         // the derived row; read through d and p
	from    apspRow // the parent's row: what is pointer-equal to it is shared
}

func deriveRow(from apspRow) cowRow { return cowRow{apspRow: from, from: from} }

func (r *cowRow) setDist(v int, x float64) {
	b, i := v>>apspShift, v&apspMask
	blk := r.dist[b]
	if math.Float64bits(blk[i]) == math.Float64bits(x) {
		return
	}
	if blk == r.from.dist[b] {
		blk = ownBlock(&r.dist, r.from.dist, b)
	}
	blk[i] = x
}

func (r *cowRow) setPrev(v int, x int32) {
	b, i := v>>apspShift, v&apspMask
	blk := r.prev[b]
	if blk[i] == x {
		return
	}
	if blk == r.from.prev[b] {
		blk = ownBlock(&r.prev, r.from.prev, b)
	}
	blk[i] = x
}

// ownBlock replaces block b of a derived table, still the parent's block,
// with a copy the row may write — in a copy of the table, if the table is
// still the parent's too.
func ownBlock[B any](tab *[]*B, from []*B, b int) *B {
	if &(*tab)[0] == &from[0] {
		*tab = append([]*B(nil), from...)
	}
	own := *from[b]
	(*tab)[b] = &own
	return &own
}

// patchRow applies the column patches to a clean row: isolated vertices
// become unreachable, pendant revivals attach at exactly
// dist(s, neighbor) + w — the same float expression the full Dijkstra
// would evaluate, hence bit-identical. The attachment distance is read
// from the derived row, after the patches before it. A row the patches
// cannot touch (every isolated column already unreachable, every pendant
// attachment unreachable) stays shared with the parent.
func (p *deltaPlan) patchRow(r *cowRow) {
	for _, x := range p.isoList {
		r.setDist(int(x), Inf)
		r.setPrev(int(x), -1)
	}
	for _, v := range p.pendList {
		u := p.pendant[v]
		if du := r.d(int(u)); !math.IsInf(du, 1) {
			r.setDist(int(v), du+p.pendantW[v])
			r.setPrev(int(v), u)
		} else {
			r.setDist(int(v), Inf)
			r.setPrev(int(v), -1)
		}
	}
}

// EdgeDelta is the full edge difference between the graph an APSP
// matrix was built over and the graph it is being repaired for. Vertex
// failures and revivals are expressed through their incident edges; the
// vertex set itself never changes.
//
// The row repair takes the records only as the places where the two
// graphs differ and reads every weight from the new graph, so a delta
// that names a pair of parallel edges once still has each of them
// relaxed. The clean-row tests and the pendant patch do read a Restored
// or Reweighted record's weight: each such edge is listed with its own.
type EdgeDelta struct {
	// Removed lists edges present in the old graph but absent from the new.
	Removed []EdgeRecord
	// Restored lists edges absent from the old graph but present in the
	// new, with their weights in the new graph.
	Restored []EdgeRecord
	// Reweighted lists edges present in both whose weight changed, each
	// carrying the NEW weight; the old weight is never needed (see the
	// re-weight rule on ApplyEdgeDeltas). Edges whose weight did not
	// change must not be listed: a listed-but-unchanged tree edge costs a
	// spurious dirty row (correct, just wasted work).
	Reweighted []EdgeRecord
}

// endpoints flattens the endpoint pairs of every record, in the form
// CSR.repairRow takes them.
func (d EdgeDelta) endpoints() []int32 {
	ends := make([]int32, 0, 2*(len(d.Removed)+len(d.Restored)+len(d.Reweighted)))
	for _, recs := range [3][]EdgeRecord{d.Removed, d.Restored, d.Reweighted} {
		for _, e := range recs {
			ends = append(ends, int32(e.U), int32(e.V))
		}
	}
	return ends
}

// deltaStats counts what one delta did with the rows it could neither
// carry over nor patch. Tests bound the repair's work with it.
type deltaStats struct {
	repaired  int // rows repaired from the parent's row
	rerun     int // rows re-run in full: forced rows, or every row when the guard fails
	settled   int // vertices the repairs' drains settled
	prevCells int // prev cells the repairs recomputed
}

func (s *deltaStats) add(o deltaStats) {
	s.repaired += o.repaired
	s.rerun += o.rerun
	s.settled += o.settled
	s.prevCells += o.prevCells
}

// Row states of one delta.
const (
	rowClean  uint8 = iota // derived and patched (patchRow)
	rowRepair              // derived and repaired (CSR.repairRow)
	rowRerun               // full DijkstraInto
)

// ApplyEdgeDeltas builds the APSP matrix of `next` incrementally from
// the cached matrix of the graph next was derived from; d is the full
// edge delta between the two graphs.
//
// The receiver is never mutated: every row but the re-run ones is derived
// from the receiver's copy-on-write (cowRow) — both matrices are
// immutable, and what the delta copies follows the cells it changes, not
// the matrix order. A clean row takes the provably-exact column fixes, if
// any; a dirty row is repaired — only the vertices whose distance the
// delta moves are re-settled, and prev is recomputed only next to them
// (CSR.repairRow) — fanned over `workers` goroutines exactly like
// AllPairsWorkers (workers ≤ 0 = GOMAXPROCS). The result is bit-identical
// to AllPairs(next) at any worker count — FuzzRepairRows here and
// FuzzIncrementalAPSP / FuzzWeightDeltaAPSP in internal/fault pin this
// differentially. It returns the new matrix and the number of rows it
// could not carry over or patch (repaired or re-run).
//
// Guard. Row reuse and repair both rest on rows being canonical — a
// function of the graph, not of the Dijkstra trace (see repair.go) —
// which holds when every relaxation strictly increases the cost: over
// the old graph (the receiver's span is finite), over next, and for
// next's weights added to the old rows' distances. strictRelax decides
// that from the two graphs' weight ranges in O(E). When it fails — a
// zero weight, or a degrade factor so extreme that 1e300 + 1 == 1e300 —
// every row re-runs DijkstraInto, which is the rebuild by construction.
// That is the only selection between the two row procedures, and it is a
// property of the input.
//
// Dirty-source rule. A row is canonical for both graphs, hence stays
// clean, exactly when the delta provably cannot change the fixed point
// or any tie-break:
//
//   - removed edge, neither endpoint isolated: dirty iff it is a tree
//     edge of s (prev[v]==u or prev[u]==v). A non-tree edge supported no
//     distance and won no tie-break, so its removal changes no cell.
//   - vertices losing all incident edges: dirty iff one of them has a
//     tree child outside the group; otherwise they are leaves of s's
//     tree and their columns patch to Inf/-1.
//   - restored edge, no pendant endpoint: dirty iff it strictly improves
//     one endpoint's distance from the other, or ties it and would win
//     the (cost, vertex) tie-break against the incumbent predecessor.
//   - restored pendant attachment (vertex regains its single edge):
//     clean rows patch the column to dist(s,u)+w, the exact expression
//     the full run evaluates; the pendant's own row is re-run in full
//     (every cell of it changes).
//   - re-weighted edge: dirty iff it is a tree edge of s, OR its new
//     weight strictly improves / tie-flips a settled distance. The two
//     tests cover both directions without the old weight: a weight
//     *decrease* on a tree edge strictly improves the child's distance
//     (so the restore test fires); a decrease on a non-tree edge is
//     exactly a restore at the new weight; an *increase* on a tree edge
//     trips the tree test; and an increase on a non-tree edge is always
//     clean — dist[v] ≤ dist[u]+w_old holds for every settled pair
//     (else the old row would have used the edge), so a larger weight
//     keeps every relaxation losing.
//   - re-weighted pendant edge (a degree-1 endpoint, positive weight):
//     the leaf's column patches to dist(s,u)+w' in every clean row and
//     only the leaf's own row re-runs — see splitPendantReweights.
func (a *APSP) ApplyEdgeDeltas(next *Graph, d EdgeDelta, workers int) (*APSP, int) {
	out, st := a.applyEdgeDeltas(next, d, workers)
	return out, st.repaired + st.rerun
}

func (a *APSP) applyEdgeDeltas(next *Graph, d EdgeDelta, workers int) (*APSP, deltaStats) {
	n := a.n
	if next.Order() != n {
		panic("graph: ApplyEdgeDeltas vertex count mismatch")
	}
	plan := planDeltas(next, d)
	kind := plan.kind()
	plan.splitPendantReweights(next)
	obs := apspDeltaObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}

	minW, reach := next.weightBounds()
	out := &APSP{n: n, rows: make([]apspRow, n), span: canonicalSpan(minW, reach)}

	state := make([]uint8, n)
	if !strictRelax(minW, math.Max(a.span, reach)) {
		// The guard failed: no row of the parent can be trusted to be the
		// one a fresh run over next produces.
		for s := range state {
			state[s] = rowRerun
		}
	} else {
		for _, s := range plan.forced {
			state[s] = rowRerun
		}
		// Classify every row in parallel: each worker owns a contiguous row
		// range, reads only the old matrix, and writes only its own rows of
		// the new one, so the outcome is independent of the worker count.
		// Dirty rows are derived in the repair pass.
		if err := parallel.MapChunked(n, workers, func(lo, hi int) error {
			for s := lo; s < hi; s++ {
				if state[s] != rowClean {
					continue
				}
				if plan.rowDirty(a.rows[s]) {
					state[s] = rowRepair
					continue
				}
				r := deriveRow(a.rows[s])
				plan.patchRow(&r)
				out.rows[s] = r.apspRow
			}
			return nil
		}); err != nil {
			panic(err)
		}
	}

	rows := make([]int, 0, len(plan.forced))
	for s, st := range state {
		if st != rowClean {
			rows = append(rows, s)
		}
	}
	var stats deltaStats
	if len(rows) > 0 {
		// Frozen only here: an all-clean delta never needs the CSR.
		csr := next.Freeze()
		ends := d.endpoints()
		var mu sync.Mutex
		if err := parallel.MapChunked(len(rows), workers, func(lo, hi int) error {
			var scratch repairScratch
			var st deltaStats
			for _, src := range rows[lo:hi] {
				if state[src] == rowRerun {
					// Every cell of the row changes: its own flat cells, a
					// per-row allocation so that a later matrix sharing one
					// row does not keep this delta's others alive.
					flat := newFlatRows(n, 1)
					dist, prev := flat.cells(0)
					csr.DijkstraInto(src, dist, prev, &scratch.sssp)
					out.rows[src] = flat.row(0)
					st.rerun++
				} else {
					r := deriveRow(a.rows[src])
					settled, cells := csr.repairRow(src, &r, ends, &scratch)
					out.rows[src] = r.apspRow
					st.repaired++
					st.settled += settled
					st.prevCells += cells
				}
			}
			mu.Lock()
			stats.add(st)
			mu.Unlock()
			return nil
		}); err != nil {
			// Neither kernel can fail on a valid Graph; a surfaced panic is
			// a kernel bug and must not be swallowed.
			panic(err)
		}
	}
	if obs != nil {
		(*obs)(kind, n, len(rows), workers, time.Since(start))
	}
	return out, stats
}
