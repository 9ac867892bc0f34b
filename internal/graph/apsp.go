package graph

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vnfopt/internal/parallel"
)

// APSPObserver receives the wall time of one batch of APSP rows built on
// first read (see APSP). The graph package stays free of any
// observability dependency: an interested party (e.g. cmd/vnfoptd wiring
// the internal/obs registry) installs a callback with SetAPSPObserver.
type APSPObserver func(vertices, edges, workers int, elapsed time.Duration)

// apspObserver is the installed callback; nil (the default) costs one
// atomic load and a clock read per batch of rows built.
var apspObserver atomic.Pointer[APSPObserver]

// SetAPSPObserver installs (or, with nil, removes) the process-wide
// APSP build observer. Safe to call concurrently with builds; a build
// in flight reports to whichever callback it loaded at start.
func SetAPSPObserver(fn APSPObserver) {
	if fn == nil {
		apspObserver.Store(nil)
		return
	}
	apspObserver.Store(&fn)
}

// apspBlock is the number of cells in one block of a row, the unit of
// sharing between a matrix and the ones ApplyEdgeDeltas derives from it:
// 512 bytes of costs. Cell v of a row sits in block v>>apspShift at index
// v&apspMask.
const (
	apspShift = 6
	apspBlock = 1 << apspShift
	apspMask  = apspBlock - 1
)

type distBlock [apspBlock]float64

// APSP holds an all-pairs shortest path matrix. It is the c(u,v) oracle of
// the paper's cost model: every communication and migration cost is a λ-
// or μ-weighted APSP lookup. A row holds costs only; Pred and Path derive
// a predecessor from them on read (see Pred).
//
// A row is built on its first read, over the graph the matrix keeps
// frozen; a reader that knows its rows (CostMatrix, SumScaledCells) builds
// the missing ones as one batch. A delta's result shares with its parent
// every row table and block it leaves alone. A cell never changes once
// built, and building a row writes only that row: a write to a block would
// corrupt every matrix sharing it. Concurrent readers are safe: rows are
// built under a lock, each published after its cells.
type APSP struct {
	n    int
	rows []Row
	// built[u] != 0 (atomic) once rows[u] is written; a uint32, not an
	// atomic.Bool, keeps Row inlinable.
	built   []uint32
	csr     *CSR        // the matrix's graph: what an unbuilt row is built over
	mu      sync.Mutex  // serializes row builds and the trace
	scratch SSSPScratch // the inline build's and the trace's, under mu
	// span bounds every finite cost in the matrix when the relaxations of
	// its graph strictly increase (strictRelax): every row is canonical,
	// the premise of ApplyEdgeDeltas' repair and of Pred's rule. +Inf when
	// they do not.
	span float64
	// trace is the last search Pred or Path ran on a matrix whose rows are
	// not canonical, under mu: a sweep over one row runs one search.
	trace struct {
		src  int
		dist []float64
		prev []int32
	}
}

// flatRows holds k rows of an n-order matrix whose cells are contiguous,
// each row padded to whole blocks: what a full Dijkstra run writes, since
// DijkstraInto takes a flat slice. Every block starts on a cache line (the
// allocator aligns these sizes to 64 bytes and a block is a multiple of
// that), so the parallel build's workers never share one.
type flatRows struct {
	n, stride int // stride: cells per padded row
	dist      []float64
	tab       []*distBlock
}

func newFlatRows(n, k int) flatRows {
	blocks := (n + apspMask) >> apspShift
	stride := blocks * apspBlock
	return flatRows{
		n: n, stride: stride,
		dist: make([]float64, k*stride),
		tab:  make([]*distBlock, k*blocks),
	}
}

// cells returns row i's flat cells, for DijkstraInto to fill.
func (f flatRows) cells(i int) []float64 {
	o := i * f.stride
	return f.dist[o : o+f.n : o+f.n]
}

// row returns row i with its table pointed at its blocks.
func (f flatRows) row(i int) Row {
	blocks := f.stride >> apspShift
	r := Row{f.tab[i*blocks : (i+1)*blocks : (i+1)*blocks]}
	for b := range r.dist {
		o := i*f.stride + b*apspBlock
		r.dist[b] = (*distBlock)(f.dist[o : o+apspBlock])
	}
	return r
}

// newAPSP allocates an n-order matrix with no row built.
func newAPSP(n int, span float64, csr *CSR) *APSP {
	return &APSP{n: n, rows: make([]Row, n), built: make([]uint32, n), csr: csr, span: span}
}

// AllPairs returns the all-pairs matrix of g, a CSR snapshot of it and no
// row built. Every row read is bit-identical to AllPairsSequential's, in
// any read order, at any worker count (docs/ALGORITHMS.md, "Performance
// kernels").
func AllPairs(g *Graph) *APSP {
	return newAPSP(g.Order(), canonicalSpan(g.weightBounds()), g.Freeze())
}

// Built reports whether row u is built: read, or repaired by a delta.
func (a *APSP) Built(u int) bool { return atomic.LoadUint32(&a.built[u]) != 0 }

// buildRow builds row u: Row's slow path, kept out of its inline budget.
//
//go:noinline
func (a *APSP) buildRow(u int) { a.buildRows([]int{u}, 1) }

// buildRows builds, as one batch, the rows of us — of every vertex when
// us is nil — that no reader has built yet.
func (a *APSP) buildRows(us []int, workers int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if us == nil {
		for u := range a.n {
			us = append(us, u)
		}
	}
	var todo []int
	for _, u := range us {
		if !a.Built(u) {
			todo = append(todo, u)
		}
	}
	slices.Sort(todo)
	if todo = slices.Compact(todo); len(todo) > 0 {
		a.fill(todo, workers)
	}
}

// fanOutArcs is the least arc count (rows × 2|E|) a batch fans out at:
// below, about 50 µs of Dijkstra, a goroutine hand-off costs more.
const fanOutArcs = 1 << 13

// fill builds rows todo — sorted, none built — into one buffer under
// a.mu, inline or over workers (≤ 0 = GOMAXPROCS) in contiguous ranges
// with a scratch each. The build observer sees the batch.
func (a *APSP) fill(todo []int, workers int) {
	obs, start := apspObserver.Load(), time.Now()
	flat := newFlatRows(a.n, len(todo))
	if len(todo)*a.csr.NumSlots() < fanOutArcs {
		for i, u := range todo {
			a.csr.DijkstraInto(u, flat.cells(i), nil, &a.scratch)
		}
	} else if err := parallel.MapChunked(len(todo), workers, func(lo, hi int) error {
		var scratch SSSPScratch
		for i := lo; i < hi; i++ {
			a.csr.DijkstraInto(todo[i], flat.cells(i), nil, &scratch)
		}
		return nil
	}); err != nil {
		// DijkstraInto cannot fail on a valid Graph; a surfaced panic is a
		// kernel bug and must not be swallowed.
		panic(err)
	}
	for i, u := range todo {
		a.rows[u] = flat.row(i)
		atomic.StoreUint32(&a.built[u], 1)
	}
	if obs != nil {
		(*obs)(a.n, a.csr.NumSlots()/2, workers, time.Since(start))
	}
}

// AllPairsSequential is the original one-source-at-a-time build over the
// [][]Edge adjacency, every row built before it returns: the
// differential oracle of the lazy and incremental kernels and the
// allocation baseline of the benchmarks. It keeps a CSR snapshot of g,
// which Pred and Path read.
func AllPairsSequential(g *Graph) *APSP {
	n := g.Order()
	a := newAPSP(n, canonicalSpan(g.weightBounds()), g.Freeze())
	flat := newFlatRows(n, n)
	for src := 0; src < n; src++ {
		dist, _ := g.Dijkstra(src)
		copy(flat.cells(src), dist)
		a.rows[src], a.built[src] = flat.row(src), 1 // not shared yet
	}
	return a
}

// Order returns the number of vertices covered by the matrix.
func (a *APSP) Order() int { return a.n }

// Cost returns the shortest-path cost c(u,v); Inf if unreachable. A hot
// loop reads it as a.Row(u).Cost(v), which inlines.
func (a *APSP) Cost(u, v int) float64 { return a.Row(u).Cost(v) }

// Row is a built row's costs, read unchecked; one slice stays in registers.
// It is one source's table of pointers to blocks of cells. The last block
// is padded to full length; no vertex id reaches the padding, and nothing
// else is ever used as an index.
type Row struct{ dist []*distBlock }

// Cost returns c(u, v), u the row's source.
func (r Row) Cost(v int) float64 { return r.dist[v>>apspShift][v&apspMask] }

// Row returns row u, built first if no reader has; unlike Cost, it inlines.
func (a *APSP) Row(u int) Row {
	if atomic.LoadUint32(&a.built[u]) == 0 {
		a.buildRow(u)
	}
	return a.rows[u]
}

// Stretches is a vertex list cut into stretches that count up by one
// inside one block, so a row is read a stretch at a time rather than a
// cell at a time. A topology numbers its switches in a run, so the
// switches cut into few. CostMatrix and SumScaledCells read rows through
// it.
type Stretches []stretch

// stretch is keep[at : at+n], which is cells off..off+n-1 of block block.
type stretch struct{ at, block, off, n int }

// AppendStretches cuts keep into stretches, appends them to dst and
// returns the result.
func AppendStretches(dst Stretches, keep []int) Stretches {
	for j := 0; j < len(keep); {
		v, n := keep[j], 1
		for j+n < len(keep) && keep[j+n] == v+n && (v+n)&apspMask != 0 {
			n++
		}
		dst = append(dst, stretch{j, v >> apspShift, v & apspMask, n})
		j += n
	}
	return dst
}

// SumScaledCells sets acc[v] = Σ_i scales[i]·c(rows[i], v), added in
// row order, at every vertex v of keep, a block at a time; acc's other
// cells are left alone. prevAcc is this call's result over prev at
// prevKeep from the same rows and scales (the caller vouches for them): a
// block with the same keep cells, every row's block pointer-equal to
// prev's, would add the same values in the same order, so it is copied.
// A nil prev sums every block. Rows not built yet are built as one batch.
func (a *APSP) SumScaledCells(acc []float64, rows []int, scales []float64, keep Stretches, prev *APSP, prevAcc []float64, prevKeep Stretches) {
	a.buildRows(rows, 0)
	for lo, hi := 0, 0; lo < len(keep); lo = hi {
		b := keep[lo].block
		for hi = lo + 1; hi < len(keep) && keep[hi].block == b; hi++ {
		}
		seg := keep[lo:hi]
		copied := prev != nil && sameCells(seg, prevKeep, b) && a.sharesBlock(prev, rows, b)
		for _, r := range seg {
			if o := b<<apspShift + r.off; copied {
				copy(acc[o:o+r.n], prevAcc[o:o+r.n])
			} else {
				clear(acc[o : o+r.n])
			}
		}
		if copied {
			continue
		}
		for i, u := range rows {
			cells := a.rows[u].dist[b]
			for _, r := range seg {
				dst := acc[b<<apspShift+r.off:][:r.n]
				for j, c := range cells[r.off : r.off+r.n] {
					dst[j] += scales[i] * c
				}
			}
		}
	}
}

// sameCells reports whether seg, a run of stretches in block b, is
// prevKeep's whole run in b, cell for cell.
func sameCells(seg, prevKeep Stretches, b int) bool {
	j := slices.IndexFunc(prevKeep, func(r stretch) bool { return r.block == b })
	if k := j + len(seg); j < 0 || k > len(prevKeep) || k < len(prevKeep) && prevKeep[k].block == b {
		return false
	}
	return slices.EqualFunc(seg, prevKeep[j:j+len(seg)], func(x, y stretch) bool { return x.block == y.block && x.off == y.off && x.n == y.n })
}

// sharesBlock reports whether a and prev share block b of every row, all
// built in a; a row prev has not built is not (nor built to compare).
func (a *APSP) sharesBlock(prev *APSP, rows []int, b int) bool {
	for _, u := range rows {
		if !prev.Built(u) || a.rows[u].dist[b] != prev.rows[u].dist[b] {
			return false
		}
	}
	return true
}

// Pred returns the predecessor of v on the shortest u→v path a Dijkstra
// run from u leaves, or -1 when v is unreachable from u (and for v == u).
// No row stores it. On a matrix whose rows are canonical it is derived
// from row u's costs and v's arcs (CSR.pred), building no other row; on
// any other it is read from one search from u, which the matrix keeps for
// the next call.
func (a *APSP) Pred(u, v int) int {
	row := a.Row(u)
	if math.IsInf(a.span, 1) {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	return a.pred(row, u, v)
}

// Path reconstructs a shortest u-v vertex sequence (inclusive) by
// following Pred back from v. It returns nil when v is unreachable from u.
func (a *APSP) Path(u, v int) []int {
	row := a.Row(u)
	if math.IsInf(row.Cost(v), 1) {
		return nil
	}
	if math.IsInf(a.span, 1) {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	var rev []int
	for x := v; x != -1; x = a.pred(row, u, x) {
		rev = append(rev, x)
	}
	slices.Reverse(rev)
	return rev
}

// pred is Pred over row, u's; where the rows are not canonical the
// caller holds mu. There the tight rule can cycle — over {0–3: 1, 3–1: 0,
// 3–2: 0, 1–2: 0} it makes 1 and 2 each other's predecessor on the paths
// from 0, where the search gives 3 to both — so the search from u that
// built the row (such a matrix repairs none) is run again, and its prev
// is read.
func (a *APSP) pred(row Row, u, v int) int {
	if !math.IsInf(a.span, 1) {
		return a.csr.pred(row, v)
	}
	t := &a.trace
	switch {
	case t.prev == nil:
		t.dist, t.prev = make([]float64, a.n), make([]int32, a.n)
	case t.src == u:
		return int(t.prev[v])
	}
	a.csr.DijkstraInto(u, t.dist, t.prev, &a.scratch)
	t.src = u
	return int(t.prev[v])
}

// Diameter returns the greatest finite pairwise cost, i.e. the diameter D
// used in the paper's complexity bound for Algo. 5. It builds every row.
func (a *APSP) Diameter() float64 {
	a.buildRows(nil, 0)
	d := 0.0
	for _, row := range a.rows {
		for v := 0; v < a.n; v++ {
			if c := row.Cost(v); !math.IsInf(c, 1) && c > d {
				d = c
			}
		}
	}
	return d
}

// CostMatrix exposes a dense submatrix of shortest-path costs over the
// given vertices: out[i][j] = c(keep[i], keep[j]) — the complete graph G”
// of paper Algo. 2 over keep, whose triangle inequality holds by
// construction, which the stroll DP relies on ("using G” overcomes an
// obstacle otherwise faced by using G"). It is CostMatrixFrom with no
// parent: the rows alias one contiguous row-major buffer (two allocations
// total), so solvers streaming the closure stay cache-local.
func (a *APSP) CostMatrix(keep []int) [][]float64 {
	return a.CostMatrixFrom(keep, nil, nil)
}

// CostMatrixFrom is CostMatrix derived from prevOut, the closure over the
// same keep on prev: a row whose blocks under keep are all prev's, by
// pointer, is prevOut's row, shared; any other row is copied into an
// allocation of its own, so a shared row pins only itself or a full
// build's one buffer — a derived chain holds ≤ 2·len(keep)² cells. Rows
// not built yet are built as one batch; one prev has not built is copied.
func (a *APSP) CostMatrixFrom(keep []int, prev *APSP, prevOut [][]float64) [][]float64 {
	a.buildRows(keep, 0)
	k := len(keep)
	var few [16]stretch // on the stack: the usual keep allocates nothing here
	runs := AppendStretches(few[:0], keep)
	out := make([][]float64, k)
	var buf []float64
	if prev == nil {
		buf = make([]float64, k*k)
	}
	for i, u := range keep {
		src, shared := a.rows[u].dist, prev != nil && prev.Built(u)
		for j := 0; j < len(runs) && shared; j++ {
			shared = src[runs[j].block] == prev.rows[u].dist[runs[j].block]
		}
		if shared {
			out[i] = prevOut[i]
			continue
		}
		if buf != nil {
			out[i] = buf[i*k : (i+1)*k]
		} else {
			out[i] = make([]float64, k)
		}
		for _, r := range runs {
			if r.n == 1 {
				out[i][r.at] = src[r.block][r.off]
			} else {
				copy(out[i][r.at:r.at+r.n], src[r.block][r.off:r.off+r.n])
			}
		}
	}
	return out
}
