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
// sharing between a matrix and the ones Reweigh derives from it:
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
	// the premise of Reweigh's repair and of Pred's rule. +Inf when
	// they do not.
	span float64
	// minW is the graph's least edge weight (+Inf without edges): no cost
	// between two distinct vertices is below it.
	minW float64
	// hop is the weight of every finite arc when all of them weigh the
	// same and span is finite, as on a unit-weight fabric with some links
	// cut: fill builds a row by layers (CSR.layersInto), or a dead end's
	// from its anchor's (anchor). 0 otherwise: by DijkstraInto.
	hop float64
	// trace is the last search Pred or Path ran on a matrix whose rows are
	// not canonical, under mu: a sweep over one row runs one search.
	trace struct {
		src  int
		dist []float64
		prev []int32
	}
}

// flatRows holds k rows of an n-order matrix whose cells are contiguous,
// each row padded to whole blocks: what a row build writes, since
// layersInto and DijkstraInto take a flat slice. Every block starts on a
// cache line (the allocator aligns these sizes to 64 bytes and a block is
// a multiple of that), so the parallel build's workers never share one.
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

// cells returns row i's flat cells, for a row build to fill.
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

// newAPSP allocates the matrix over csr with no row built.
func newAPSP(csr *CSR) *APSP {
	minW, maxW, reach := csr.weightBounds()
	a := &APSP{n: csr.n, rows: make([]Row, csr.n), built: make([]uint32, csr.n), csr: csr, span: canonicalSpan(minW, reach), minW: minW}
	if minW == maxW && !math.IsInf(a.span, 1) {
		a.hop = minW
	}
	return a
}

// AllPairs returns the all-pairs matrix of g, a CSR snapshot of it and no
// row built. Every row read is bit-identical to AllPairsSequential's, in
// any read order, at any worker count (docs/ALGORITHMS.md, "Performance
// kernels").
func AllPairs(g *Graph) *APSP { return newAPSP(g.freeze()) }

// Fabric returns the CSR the matrix is over: g's snapshot for
// AllPairs(g), its parent's under the vector Reweigh was given otherwise.
func (a *APSP) Fabric() *CSR { return a.csr }

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
// with a scratch each. A row is built by layers where the matrix's arcs
// weigh alike (hop), by DijkstraInto elsewhere; both write the same bits
// (docs/ALGORITHMS.md, "Performance kernels"). On a layered matrix a
// dead end's row is derived from its anchor's with one add pass
// (deriveCells) where the anchor's row is built or in the batch; a batch
// of two or more rows pulls its dead ends' missing anchors in, and a lone
// read of a dead end whose anchor is not built is built by layers. The
// build observer sees the batch.
func (a *APSP) fill(todo []int, workers int) {
	obs, start := apspObserver.Load(), time.Now()
	if a.hop > 0 && len(todo) > 1 {
		k := len(todo)
		for _, u := range todo[:k] {
			if x := a.anchor(u); x >= 0 && !a.Built(x) {
				todo = append(todo, x)
			}
		}
		if len(todo) > k {
			slices.Sort(todo)
			todo = slices.Compact(todo)
		}
	}
	var kernel, derived []int // indices into todo
	for i, u := range todo {
		x := a.anchor(u)
		if _, batched := slices.BinarySearch(todo, x); x >= 0 && (batched || a.Built(x)) {
			derived = append(derived, i)
		} else {
			kernel = append(kernel, i)
		}
	}
	flat := newFlatRows(a.n, len(todo))
	build := func(i int, s *SSSPScratch) {
		if a.hop > 0 {
			a.csr.layersInto(todo[i], flat.cells(i), a.hop, s)
		} else {
			a.csr.DijkstraInto(todo[i], flat.cells(i), nil, s)
		}
	}
	if len(kernel)*a.csr.NumSlots() < fanOutArcs {
		for _, i := range kernel {
			build(i, &a.scratch)
		}
	} else if err := parallel.MapChunked(len(kernel), workers, func(lo, hi int) error {
		var scratch SSSPScratch
		for _, i := range kernel[lo:hi] {
			build(i, &scratch)
		}
		return nil
	}); err != nil {
		// A row build cannot fail on a valid Graph; a surfaced panic is a
		// kernel bug and must not be swallowed.
		panic(err)
	}
	for i, u := range todo {
		a.rows[u] = flat.row(i) // read by the derivations below, unpublished
	}
	for _, i := range derived {
		u := todo[i]
		deriveCells(flat.cells(i), a.rows[a.anchor(u)], u, a.hop)
	}
	for _, u := range todo {
		atomic.StoreUint32(&a.built[u], 1)
	}
	if obs != nil {
		(*obs)(a.n, a.csr.NumSlots()/2, workers, time.Since(start))
	}
}

// anchor returns the vertex whose row u's row is derived from on a
// layered matrix, or -1: u's one neighbour, where u is a dead end whose
// arc is live and the neighbour is not a dead end too. Every layer from
// u is then the anchor's layer shifted by one arc of weight hop, so u's
// row is fl(anchor's row + hop), 0 at u, bit for bit (docs/ALGORITHMS.md,
// "Performance kernels").
func (a *APSP) anchor(u int) int {
	c := a.csr
	if a.hop == 0 || !c.dead[u] {
		return -1
	}
	e := c.rowStart[u]
	if x := int(c.to[e]); c.wt[e] < Inf && !c.dead[x] {
		return x
	}
	return -1
}

// deriveCells writes the row of dead end u into dst from its anchor's
// row: fl(from + hop) in every cell, 0 at u.
func deriveCells(dst []float64, from Row, u int, hop float64) {
	for b, blk := range from.dist {
		o := b << apspShift
		for j, c := range blk[:min(apspBlock, len(dst)-o)] {
			dst[o+j] = c + hop
		}
	}
	dst[u] = 0
}

// AllPairsSequential is the original one-source-at-a-time build over the
// [][]Edge adjacency, every row built before it returns: the
// differential oracle of the lazy and incremental kernels and the
// allocation baseline of the benchmarks. It keeps a CSR snapshot of g,
// which Pred and Path read.
func AllPairsSequential(g *Graph) *APSP {
	n := g.Order()
	a := newAPSP(g.freeze())
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
// obstacle otherwise faced by using G"). The rows alias one contiguous
// row-major buffer (two allocations total), so solvers streaming the
// closure stay cache-local. Closure reads the same cells in place.
func (a *APSP) CostMatrix(keep []int) [][]float64 {
	a.buildRows(keep, 0)
	k := len(keep)
	var few [16]stretch // on the stack: the usual keep allocates nothing here
	runs := AppendStretches(few[:0], keep)
	out, buf := make([][]float64, k), make([]float64, k*k)
	for i, u := range keep {
		out[i] = buf[i*k : (i+1)*k]
		a.rows[u].gather(out[i], runs)
	}
	return out
}

// gather copies the row's cells at the vertices runs was cut from into
// dst, in list order.
func (r Row) gather(dst []float64, runs Stretches) {
	for _, s := range runs {
		copy(dst[s.at:s.at+s.n], r.dist[s.block][s.off:s.off+s.n])
	}
}

// Closure is CostMatrix over keep read from the matrix in place: cell
// (i, j) is c(keep[i], keep[j]). Row copies row i's cells out on its
// first read and keeps the copy; Cost reads one cell and copies nothing.
// Row fills the view, so a view has one owner goroutine.
type Closure struct {
	a      *APSP
	keep   []int
	runs   Stretches
	rows   [][]float64 // rows[i]: row i's cells, nil until read
	copied int
}

// Closure returns the view of the closure over keep. Every row of keep
// the matrix has not built is built first, as one batch.
func (a *APSP) Closure(keep []int) *Closure {
	a.buildRows(keep, 0)
	return &Closure{a: a, keep: keep, runs: AppendStretches(nil, keep), rows: make([][]float64, len(keep))}
}

// Len returns the number of vertices the closure is over.
func (c *Closure) Len() int { return len(c.keep) }

// Cost returns c(keep[i], keep[j]).
func (c *Closure) Cost(i, j int) float64 { return c.a.Row(c.keep[i]).Cost(c.keep[j]) }

// Row returns row i's cells, indexed like keep. Owned by the view; do
// not mutate.
func (c *Closure) Row(i int) []float64 {
	if c.rows[i] == nil {
		c.rows[i] = make([]float64, len(c.keep))
		c.a.Row(c.keep[i]).gather(c.rows[i], c.runs)
		c.copied++
	}
	return c.rows[i]
}

// Copied returns the number of rows Row has copied out.
func (c *Closure) Copied() int { return c.copied }

// Floor returns a lower bound on every cell off the diagonal: the least
// edge weight of the matrix's graph (+Inf without edges).
func (c *Closure) Floor() float64 { return c.a.minW }
