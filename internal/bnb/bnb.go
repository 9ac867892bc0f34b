// Package bnb is the shared branch-and-bound kernel behind every exact
// search in the library: placement.Optimal (Algorithm 4),
// migration.Exhaustive (Algorithm 6), and the stroll exhaustive solver
// all enumerate ordered tuples of candidates with an admissible lower
// bound, an optional node budget, and cooperative cancellation. The
// kernel factors that recursion out once, allocation-free on the hot
// path, and adds an optional parallel mode that fans the first one to
// two tree levels out across goroutines with a process-shared incumbent
// — the same answer as the sequential search at any worker count,
// bitwise where cost arithmetic is exact and to a few ulp where it is
// not (see "Determinism of the parallel mode").
//
// # Search shape
//
// A Spec describes choosing one candidate (a dense id in [0, K)) per
// slot 0..N-1, where no candidate may appear more than Cap times
// (Cap <= 0 = unlimited). Branches accumulate StepCost, are pruned
// against SeedCost (or the best leaf so far) using StepCost+TailBound,
// and leaves close with LeafCost. Children are expanded cheapest
// step first (ties in candidate-id order), which both tightens the
// incumbent early and fixes the deterministic visit order the parallel
// mode reproduces.
//
// # Determinism of the parallel mode
//
// Sequential tie-breaking is "strict improvement only": a leaf replaces
// the incumbent iff its cost is strictly lower, so among equal-cost
// optima the first in depth-first visit order wins. The parallel mode
// preserves exactly that winner:
//
//   - subtree tasks are enumerated in the sequential visit order and
//     carry that ordinal;
//   - the shared bound only prunes a task's branches when the bound is
//     strictly below them (lb > bound required to prune against the
//     global incumbent), so a subtree containing an equal-cost optimum
//     still finds its own first such leaf;
//   - each task proposes its local strict-improvement winner, and the
//     reducer keeps the proposal with (cost, task ordinal) lexicographically
//     smallest — i.e. the same leaf the sequential scan would have kept.
//
// Costs are accumulated in the same association order as the sequential
// recursion (((0 + step_0) + step_1) + ...), so one tuple has one cost
// bitwise and the comparison above is exact, not tolerance-based.
//
// That makes the winner identical whenever pruning is exact, which needs
// TailBound admissible to the last bit. It is on integer-valued
// instances (unit link weights, integer rates: every sum is an integer
// below 2^53, so float addition is exact), and there completed searches
// agree bitwise. On real-valued instances the callers' bounds are
// admissible in real arithmetic only: cur + TailBound can round an ulp
// above the true cost of a leaf below it, so a subtree holding a leaf a
// few ulp better than the incumbent is pruned or not depending on which
// incumbent was in place when the search reached it — and the fan-out
// changes that history. Both searches still complete and return valid
// tuples, each with its own exact accumulated cost; the two costs lie
// within a few ulp (FuzzParallelKernel holds them to 4) but the tuples
// may differ.
//
// Under cancellation or budget exhaustion the parallel incumbent may
// legitimately differ from the sequential one (workers explore subtrees
// the sequential search would not have reached yet); both still report
// proven=false and a valid incumbent. The guarantees above are for
// searches that run to completion.
package bnb

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"vnfopt/internal/parallel"
)

const (
	// ctxCheckMask throttles context polls to one ctx.Err() call per
	// ctxCheckMask+1 node expansions per worker, matching the historical
	// cadence of the solvers this kernel replaced (first poll after 1024
	// expansions; the pre-search poll is the caller's).
	ctxCheckMask = 1023
	// budgetChunk is how many expansions a parallel worker reserves from
	// the shared NodeBudget counter at a time. Chunking keeps the shared
	// atomic off the per-node hot path; unused reservations are returned
	// when the worker drains, so Result.Expansions stays exact.
	budgetChunk = 1024
	// fanoutFactor controls task granularity: when the first level yields
	// fewer than fanoutFactor x workers subtrees, the fan-out splits the
	// first two levels instead, so slow subtrees cannot serialize the
	// search behind one goroutine.
	fanoutFactor = 4
)

// Spec defines one ordered-tuple branch-and-bound search. All closures
// must be safe for concurrent calls when Workers > 1; they are pure
// functions of precomputed tables in every solver in this module.
type Spec struct {
	// N is the tuple length (slots to fill); must be >= 1.
	N int
	// K is the candidate-universe size; candidates are dense ids [0, K).
	K int
	// Cap bounds how many slots one candidate may occupy; <= 0 = unlimited.
	Cap int
	// StepCost is the cost of extending a partial tuple ending in
	// candidate last (or the root, at depth 0 — last is then undefined)
	// with candidate v at slot depth.
	StepCost func(last, v, depth int) float64
	// TailBound is an admissible lower bound on the cost still to pay
	// after placing v at slot depth (excluding StepCost(last, v, depth)
	// itself, including the leaf closing cost).
	TailBound func(v, depth int) float64
	// LeafCost closes a complete tuple ending in candidate last.
	LeafCost func(last int) float64
	// SeedCost is the incumbent cost the search must strictly beat;
	// +Inf when the caller has no seed.
	SeedCost float64
	// NodeBudget caps node expansions (0 = unlimited). The sequential
	// path stops exactly at the budget; the parallel path reserves the
	// budget in budgetChunk batches, so it may overshoot by at most
	// workers x budgetChunk expansions. Either way Proven is false when
	// the budget interrupted the search.
	NodeBudget int
	// Workers fans the search out: 0 or 1 runs the sequential oracle,
	// > 1 uses that many goroutines, < 0 uses GOMAXPROCS.
	Workers int
}

// Result is the outcome of a Search.
type Result struct {
	// Cost is the best complete-tuple cost found, or SeedCost when no
	// tuple beat the seed (Path is then nil).
	Cost float64
	// Path is the best tuple (candidate ids, length N), nil when the
	// seed was never beaten.
	Path []int
	// Proven reports whether the search ran to completion (no budget
	// exhaustion, no cancellation): the result is then the global
	// optimum over all feasible tuples and the seed.
	Proven bool
	// Expansions is the number of node expansions performed.
	Expansions int64
}

// Search runs the branch-and-bound described by s. On cancellation it
// returns the incumbent found so far with Proven == false alongside
// ctx.Err(); callers are expected to have polled ctx once before calling
// (the kernel's first poll happens after 1024 expansions).
func Search(ctx context.Context, s Spec) (Result, error) {
	workers := s.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && s.N >= 1 {
		return searchParallel(ctx, s, workers)
	}
	return searchSequential(ctx, s)
}

// cand is one feasible child: candidate id and its step cost. 16 bytes,
// so per-depth candidate arrays stay cache-dense.
type cand struct {
	v int32
	c float64
}

// scratch is the per-worker reusable state: the capacity vector indexed
// by candidate id, the current path, and one preallocated candidate
// array per depth. After construction the expansion loop performs no
// heap allocation.
type scratch struct {
	spec *Spec
	used []int16
	path []int32
	kids [][]cand
}

func newScratch(s *Spec) *scratch {
	w := &scratch{
		spec: s,
		used: make([]int16, s.K),
		path: make([]int32, s.N),
		kids: make([][]cand, s.N),
	}
	for i := range w.kids {
		w.kids[i] = make([]cand, 0, s.K)
	}
	return w
}

// children fills kids[depth] with the feasible candidates below a node
// ending in last, sorted ascending by step cost. The insertion sort is
// stable, so equal-cost candidates keep ascending id order — the
// deterministic visit order both modes share.
func (w *scratch) children(last int32, depth int) []cand {
	s := w.spec
	kids := w.kids[depth][:0]
	for v := 0; v < s.K; v++ {
		if s.Cap > 0 && int(w.used[v]) >= s.Cap {
			continue
		}
		kids = append(kids, cand{v: int32(v), c: s.StepCost(int(last), v, depth)})
	}
	for i := 1; i < len(kids); i++ {
		k := kids[i]
		j := i - 1
		for j >= 0 && kids[j].c > k.c {
			kids[j+1] = kids[j]
			j--
		}
		kids[j+1] = k
	}
	w.kids[depth] = kids
	return kids
}

func toInts(p []int32) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[i] = int(v)
	}
	return out
}

// seqSearch is the sequential oracle: the reference implementation the
// parallel mode must match bit for bit on complete searches.
type seqSearch struct {
	*scratch
	ctx       context.Context
	budget    int64
	nodes     int64
	exhausted bool
	cancelled bool
	bestCost  float64
	best      []int32
	found     bool
}

func searchSequential(ctx context.Context, s Spec) (Result, error) {
	q := &seqSearch{
		scratch:  newScratch(&s),
		ctx:      ctx,
		budget:   int64(s.NodeBudget),
		bestCost: s.SeedCost,
		best:     make([]int32, s.N),
	}
	q.rec(-1, 0, 0)
	res := Result{
		Cost:       q.bestCost,
		Proven:     !q.exhausted && !q.cancelled,
		Expansions: q.nodes,
	}
	if q.found {
		res.Path = toInts(q.best)
	}
	if q.cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

func (q *seqSearch) rec(last int32, depth int, cur float64) {
	q.nodes++
	if q.budget > 0 && q.nodes > q.budget {
		q.exhausted = true
		return
	}
	if q.nodes&ctxCheckMask == 0 && q.ctx.Err() != nil {
		q.cancelled = true
		return
	}
	s := q.spec
	if depth == s.N {
		if total := cur + s.LeafCost(int(last)); total < q.bestCost {
			q.bestCost = total
			q.found = true
			copy(q.best, q.path)
		}
		return
	}
	for _, ch := range q.children(last, depth) {
		nc := cur + ch.c
		if nc+s.TailBound(int(ch.v), depth) >= q.bestCost {
			continue
		}
		q.used[ch.v]++
		q.path[depth] = ch.v
		q.rec(ch.v, depth+1, nc)
		q.used[ch.v]--
		if q.exhausted || q.cancelled {
			return
		}
	}
}

// task is one independent subtree of the parallel fan-out: the first
// one or two tuple slots are fixed, and cur carries the prefix cost
// accumulated in the sequential association order.
type task struct {
	a, b int32 // b < 0: only slot 0 is fixed
	curA float64
	cur  float64
}

// sharedIncumbent is the process-shared incumbent of a parallel search.
// The bound is a lock-free monotone minimum used for pruning (reading a
// slightly stale value only weakens pruning, never correctness); the
// mutex-guarded triple is the authoritative (cost, ordinal, path) used
// for the deterministic reduction.
type sharedIncumbent struct {
	bound atomic.Uint64 // Float64bits of the best known cost

	mu       sync.Mutex
	bestCost float64
	bestOrd  int // task ordinal that produced bestCost; -1 = the seed
	bestPath []int32
	found    bool
}

func (s *sharedIncumbent) load() float64 {
	return math.Float64frombits(s.bound.Load())
}

// propose offers a task's strict-improvement leaf. The reducer keeps the
// lexicographically smallest (cost, ordinal): exactly the leaf the
// sequential depth-first scan would have kept, since task ordinals are
// the sequential visit order and the seed carries ordinal -1.
func (s *sharedIncumbent) propose(ord int, cost float64, path []int32) {
	for {
		old := s.bound.Load()
		if math.Float64frombits(old) <= cost {
			break
		}
		if s.bound.CompareAndSwap(old, math.Float64bits(cost)) {
			break
		}
	}
	s.mu.Lock()
	if cost < s.bestCost || (cost == s.bestCost && ord < s.bestOrd) {
		s.bestCost = cost
		s.bestOrd = ord
		s.found = true
		copy(s.bestPath, path)
	}
	s.mu.Unlock()
}

// parShared is the full shared state of one parallel search.
type parShared struct {
	sharedIncumbent
	nodes      atomic.Int64 // reserved-expansion high-water mark, exact after drain
	budget     int64
	stopBudget atomic.Bool
	stopCancel atomic.Bool
}

// parSearch is one worker's view: private scratch plus chunked
// accounting against the shared counters.
type parSearch struct {
	*scratch
	ctx       context.Context
	shared    *parShared
	ord       int
	localBest float64
	nodes     int64 // expansions performed by this worker
	reserved  int64 // expansions reserved from shared.nodes
	exhausted bool
	cancelled bool
}

// countNode accounts one expansion; false means stop (budget or cancel).
func (w *parSearch) countNode() bool {
	w.nodes++
	if w.nodes > w.reserved {
		total := w.shared.nodes.Add(budgetChunk)
		w.reserved += budgetChunk
		if w.shared.budget > 0 && total-budgetChunk >= w.shared.budget {
			w.exhausted = true
			w.shared.stopBudget.Store(true)
			return false
		}
	}
	if w.nodes&ctxCheckMask == 0 {
		if w.shared.stopBudget.Load() {
			w.exhausted = true
			return false
		}
		if w.shared.stopCancel.Load() {
			w.cancelled = true
			return false
		}
		if w.ctx.Err() != nil {
			w.cancelled = true
			w.shared.stopCancel.Store(true)
			return false
		}
	}
	return true
}

func (w *parSearch) rec(last int32, depth int, cur float64) {
	if !w.countNode() {
		return
	}
	s := w.spec
	if depth == s.N {
		if total := cur + s.LeafCost(int(last)); total < w.localBest {
			w.localBest = total
			w.shared.propose(w.ord, total, w.path)
		}
		return
	}
	for _, ch := range w.children(last, depth) {
		nc := cur + ch.c
		lb := nc + s.TailBound(int(ch.v), depth)
		// Strict against the shared bound: an equal-cost optimum in this
		// subtree must still be visited so the ordinal tie-break sees it.
		if lb >= w.localBest || lb > w.shared.load() {
			continue
		}
		w.used[ch.v]++
		w.path[depth] = ch.v
		w.rec(ch.v, depth+1, nc)
		w.used[ch.v]--
		if w.exhausted || w.cancelled {
			return
		}
	}
}

// runTask explores one fixed-prefix subtree under a fresh local
// incumbent (+Inf: local strict improvement is what makes each task
// propose its own first equal-cost optimum regardless of what other
// tasks found first).
func (w *parSearch) runTask(ord int, t task) {
	s := w.spec
	w.ord = ord
	w.localBest = math.Inf(1)
	bound := w.shared.load()
	if t.curA+s.TailBound(int(t.a), 0) > bound {
		return
	}
	last, depth := t.a, 1
	w.used[t.a]++
	w.path[0] = t.a
	if t.b >= 0 {
		if t.cur+s.TailBound(int(t.b), 1) <= bound {
			w.used[t.b]++
			w.path[1] = t.b
			w.rec(t.b, 2, t.cur)
			w.used[t.b]--
		}
	} else {
		w.rec(last, depth, t.cur)
	}
	w.used[t.a]--
}

// drain returns this worker's unused budget reservation so the shared
// counter ends exactly equal to the expansions actually performed.
func (w *parSearch) drain() {
	if w.reserved > w.nodes {
		w.shared.nodes.Add(w.nodes - w.reserved)
	}
}

func searchParallel(ctx context.Context, s Spec, workers int) (Result, error) {
	// Enumerate subtree tasks in the sequential visit order using the
	// same children() expansion the oracle runs — the task list IS the
	// oracle's first one or two levels.
	root := newScratch(&s)
	level0 := root.children(-1, 0)
	var tasks []task
	twoLevel := s.N >= 2 && len(level0) < fanoutFactor*workers
	if twoLevel {
		tasks = make([]task, 0, len(level0)*len(level0))
		for _, a := range level0 {
			root.used[a.v]++
			for _, b := range root.children(a.v, 1) {
				tasks = append(tasks, task{a: a.v, b: b.v, curA: a.c, cur: a.c + b.c})
			}
			root.used[a.v]--
		}
	} else {
		tasks = make([]task, len(level0))
		for i, a := range level0 {
			tasks[i] = task{a: a.v, b: -1, curA: a.c, cur: a.c}
		}
	}

	shared := &parShared{budget: int64(s.NodeBudget)}
	shared.bound.Store(math.Float64bits(s.SeedCost))
	shared.bestCost = s.SeedCost
	shared.bestOrd = -1
	shared.bestPath = make([]int32, s.N)
	// Structural expansions the task enumeration already performed: the
	// root, plus each first-level interior node when fanning out two
	// levels. Keeps Expansions comparable with the sequential count.
	structural := int64(1)
	if twoLevel {
		structural += int64(len(level0))
	}
	shared.nodes.Store(structural)

	if len(tasks) == 0 {
		return Result{Cost: s.SeedCost, Proven: true, Expansions: structural}, nil
	}

	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	perr := parallel.ForEach(workers, workers, func(int) error {
		w := &parSearch{scratch: newScratch(&s), ctx: ctx, shared: shared}
		defer w.drain()
		for {
			i := int(next.Add(1) - 1)
			if i >= len(tasks) {
				return nil
			}
			if shared.stopBudget.Load() || shared.stopCancel.Load() {
				return nil
			}
			w.runTask(i, tasks[i])
			if w.exhausted || w.cancelled {
				return nil
			}
		}
	})

	res := Result{
		Cost:       shared.bestCost,
		Proven:     !shared.stopBudget.Load() && !shared.stopCancel.Load(),
		Expansions: shared.nodes.Load(),
	}
	if shared.found {
		res.Path = toInts(shared.bestPath)
	}
	if perr != nil {
		// A panicking Spec closure — surface it like the sequential path
		// would have.
		panic(perr)
	}
	if shared.stopCancel.Load() {
		res.Proven = false
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, context.Canceled
	}
	return res, nil
}
