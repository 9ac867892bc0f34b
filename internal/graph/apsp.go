package graph

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"vnfopt/internal/parallel"
)

// APSPObserver receives the wall time of one all-pairs build. The graph
// package stays free of any observability dependency: an interested
// party (e.g. cmd/vnfoptd wiring the internal/obs registry) installs a
// callback with SetAPSPObserver and the kernel reports into it.
type APSPObserver func(vertices, edges, workers int, elapsed time.Duration)

// apspObserver is the installed callback; nil (the default) costs one
// atomic load per AllPairs build.
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
// 512 bytes of dist, 256 of prev. Cell v of a row sits in block
// v>>apspShift at index v&apspMask.
const (
	apspShift = 6
	apspBlock = 1 << apspShift
	apspMask  = apspBlock - 1
)

type (
	distBlock [apspBlock]float64
	prevBlock [apspBlock]int32
)

// apspRow is one source's row: a table of pointers to blocks of cells per
// field. The last block is padded to full length; no vertex id reaches the
// padding, and nothing else is ever used as an index.
type apspRow struct {
	dist []*distBlock // d(v): shortest-path cost source->v
	prev []*prevBlock // p(v): predecessor of v on that path
}

func (r apspRow) d(v int) float64 { return r.dist[v>>apspShift][v&apspMask] }
func (r apspRow) p(v int) int32   { return r.prev[v>>apspShift][v&apspMask] }

// APSP holds an all-pairs shortest path matrix with predecessor links for
// path reconstruction. It is the c(u,v) oracle of the paper's cost model:
// every communication and migration cost is a λ- or μ-weighted APSP lookup.
//
// A full build lays every row's blocks over one contiguous buffer, while
// an incremental ApplyEdgeDeltas result shares with its parent matrix
// every row table the delta leaves alone and, in the rows it writes, every
// block in which no cell changes value. APSP values are therefore
// immutable once returned — mutating a block would silently corrupt every
// matrix sharing it.
type APSP struct {
	n    int
	rows []apspRow
	// span bounds every finite cost in the matrix when the relaxations of
	// the graph it was built over are strictly increasing (strictRelax) —
	// every row is then canonical, the premise of ApplyEdgeDeltas' row
	// repair. +Inf when they are not: the next delta re-runs
	// every row.
	span float64
}

// flatRows holds k rows of an n-order matrix whose cells are contiguous
// per field, each row padded to whole blocks: what a full Dijkstra run
// writes, since DijkstraInto takes flat slices. Every block starts on a
// cache line (the allocator aligns these sizes to 64 bytes and a block is
// a multiple of that), so the parallel build's workers never share one.
type flatRows struct {
	n, stride int // stride: cells per padded row
	dist      []float64
	prev      []int32
	distTab   []*distBlock
	prevTab   []*prevBlock
}

func newFlatRows(n, k int) flatRows {
	blocks := (n + apspMask) >> apspShift
	stride := blocks * apspBlock
	return flatRows{
		n: n, stride: stride,
		dist:    make([]float64, k*stride),
		prev:    make([]int32, k*stride),
		distTab: make([]*distBlock, k*blocks),
		prevTab: make([]*prevBlock, k*blocks),
	}
}

// cells returns row i's flat cells, for DijkstraInto to fill.
func (f flatRows) cells(i int) ([]float64, []int32) {
	o := i * f.stride
	return f.dist[o : o+f.n : o+f.n], f.prev[o : o+f.n : o+f.n]
}

// row returns row i with its tables pointed at its blocks.
func (f flatRows) row(i int) apspRow {
	blocks := f.stride >> apspShift
	r := apspRow{
		dist: f.distTab[i*blocks : (i+1)*blocks : (i+1)*blocks],
		prev: f.prevTab[i*blocks : (i+1)*blocks : (i+1)*blocks],
	}
	for b := range r.dist {
		o := i*f.stride + b*apspBlock
		r.dist[b] = (*distBlock)(f.dist[o : o+apspBlock])
		r.prev[b] = (*prevBlock)(f.prev[o : o+apspBlock])
	}
	return r
}

// newAPSP allocates an n-order matrix over one flatRows, which it returns
// for the build to fill.
func newAPSP(n int) (*APSP, flatRows) {
	f := newFlatRows(n, n)
	a := &APSP{n: n, rows: make([]apspRow, n)}
	for i := range a.rows {
		a.rows[i] = f.row(i)
	}
	return a, f
}

// AllPairs runs Dijkstra from every vertex and caches the results.
// Complexity O(|V| * |E| log |V|). The build freezes the graph into a CSR
// snapshot and fans the |V| independent sources across GOMAXPROCS workers
// (see allPairsWorkers); output is bit-identical to AllPairsSequential at
// any worker count (measurements: docs/ALGORITHMS.md, "Performance
// kernels").
func AllPairs(g *Graph) *APSP {
	return allPairsWorkers(g, 0)
}

// allPairsWorkers is AllPairs with an explicit worker count (≤ 0 =
// GOMAXPROCS, 1 = sequential CSR kernel). Workers own disjoint contiguous
// row ranges of the dist/prev matrices and per-range scratch buffers, so
// the result is bit-identical to the sequential build regardless of
// worker count or scheduling.
func allPairsWorkers(g *Graph, workers int) *APSP {
	obs := apspObserver.Load()
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	n := g.Order()
	a, flat := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	csr := g.Freeze()
	err := parallel.MapChunked(n, workers, func(lo, hi int) error {
		var scratch SSSPScratch
		for src := lo; src < hi; src++ {
			dist, prev := flat.cells(src)
			csr.DijkstraInto(src, dist, prev, &scratch)
		}
		return nil
	})
	if err != nil {
		// DijkstraInto cannot fail on a valid Graph; a surfaced panic is a
		// kernel bug and must not be swallowed.
		panic(err)
	}
	if obs != nil {
		(*obs)(n, g.Size(), workers, time.Since(start))
	}
	return a
}

// AllPairsSequential is the original one-source-at-a-time build over the
// [][]Edge adjacency. It is kept as the differential oracle for the CSR
// and parallel kernels (tests assert byte-identical dist/prev matrices)
// and as the allocation-behavior baseline for the benchmarks.
func AllPairsSequential(g *Graph) *APSP {
	n := g.Order()
	a, flat := newAPSP(n)
	a.span = canonicalSpan(g.weightBounds())
	for src := 0; src < n; src++ {
		dist, prev := g.Dijkstra(src)
		distRow, prevRow := flat.cells(src)
		copy(distRow, dist)
		for v, p := range prev {
			prevRow[v] = int32(p)
		}
	}
	return a
}

// Order returns the number of vertices covered by the matrix.
func (a *APSP) Order() int { return a.n }

// Cost returns the shortest-path cost c(u,v); Inf if unreachable.
func (a *APSP) Cost(u, v int) float64 { return a.rows[u].d(v) }

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
// A nil prev sums every block.
func (a *APSP) SumScaledCells(acc []float64, rows []int, scales []float64, keep Stretches, prev *APSP, prevAcc []float64, prevKeep Stretches) {
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

// sharesBlock reports whether a and prev share block b of every row.
func (a *APSP) sharesBlock(prev *APSP, rows []int, b int) bool {
	for _, u := range rows {
		if a.rows[u].dist[b] != prev.rows[u].dist[b] {
			return false
		}
	}
	return true
}

// Pred returns the predecessor of v on the cached shortest u→v path, or
// -1 when v is unreachable from u (and for v == u). Differential tests
// use it to compare predecessor matrices entry-for-entry without
// materializing paths.
func (a *APSP) Pred(u, v int) int { return int(a.rows[u].p(v)) }

// Path reconstructs a shortest u-v vertex sequence (inclusive). It returns
// nil when v is unreachable from u.
func (a *APSP) Path(u, v int) []int {
	row := a.rows[u]
	if math.IsInf(row.d(v), 1) {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = int(row.p(x)) {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Diameter returns the greatest finite pairwise cost, i.e. the diameter D
// used in the paper's complexity bound for Algo. 5.
func (a *APSP) Diameter() float64 {
	d := 0.0
	for _, row := range a.rows {
		for v := 0; v < a.n; v++ {
			if c := row.d(v); !math.IsInf(c, 1) && c > d {
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
// build's one buffer — a derived chain holds ≤ 2·len(keep)² cells.
func (a *APSP) CostMatrixFrom(keep []int, prev *APSP, prevOut [][]float64) [][]float64 {
	k := len(keep)
	var few [16]stretch // on the stack: the usual keep allocates nothing here
	runs := AppendStretches(few[:0], keep)
	out := make([][]float64, k)
	var buf []float64
	if prev == nil {
		buf = make([]float64, k*k)
	}
	for i, u := range keep {
		src, shared := a.rows[u].dist, prev != nil
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
