package stroll

import (
	"math"
	"sort"
)

// PrimalDual implements the paper's Algorithm 1 family: a primal-dual
// (Goemans-Williamson) moat-growth algorithm for the n-stroll.
//
// Growth phase: every vertex starts as its own active moat; s and t carry
// unbounded prize (they are required), other vertices a uniform prize π.
// Moats grow at unit rate, paying for boundary edges; a moat deactivates
// when its dual reaches its prize mass; two moats merge when an edge goes
// tight, and the merged moat containing both s and t is satisfied. The
// tight edges form a tree over the s-t component.
//
// A Lagrangean binary search on π (the standard k-MST/k-stroll technique)
// finds the smallest uniform prize whose grown tree spans at least n
// intermediates. Pruning phase: leaf edges are deleted until exactly n
// intermediates remain — "deletes edges to obtain the final path that
// spans n switches". Finally the tree is doubled and shortcut into an s-t
// walk (each tree edge traversed at most twice, as in the paper's Step 2).
//
// The paper never executes Algorithm 1 (Fig. 7 plots its 2+ε guarantee as
// 2 × Optimal); this implementation exists so the algorithm is real,
// validated code, and its measured cost is reported alongside the bound.
func PrimalDual(in Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if in.N == 0 {
		return Result{
			Cost:    in.Cost[in.S][in.T],
			Walk:    []int{in.S, in.T},
			Visited: []int{},
		}, nil
	}
	maxC := 0.0
	for i := range in.Cost {
		for j := range in.Cost[i] {
			if in.Cost[i][j] > maxC {
				maxC = in.Cost[i][j]
			}
		}
	}

	// Binary search the uniform prize. hi is large enough to pull every
	// vertex into the tree (a prize above the largest edge cost keeps
	// every moat active until it merges).
	lo, hi := 0.0, 2*maxC+1
	var tree [][2]int
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		tr := growMoats(in, mid)
		if countIntermediates(tr, in.S, in.T) >= in.N {
			tree = tr
			hi = mid
		} else {
			lo = mid
		}
	}
	if tree == nil {
		tree = growMoats(in, hi)
		if countIntermediates(tree, in.S, in.T) < in.N {
			// Degenerate fallback: connect the n nearest intermediates
			// directly (still a feasible stroll).
			return fallbackStroll(in), nil
		}
	}

	pruned := pruneToN(in, tree, in.N)
	walk := treeWalk(in, pruned)
	vis := distinctIntermediates(walk, in.S, in.T)
	walk = truncateAfterN(in, walk, vis, in.N)
	vis = vis[:in.N]
	return Result{Cost: walkCost(Matrix(in.Cost), walk), Walk: walk, Visited: vis}, nil
}

// growMoats runs one GW growth phase with uniform prize pi and returns the
// tight-edge tree of the component containing s and t.
func growMoats(in Instance, pi float64) [][2]int {
	nv := len(in.Cost)
	parent := make([]int, nv)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	active := make([]bool, nv)    // per component root
	remain := make([]float64, nv) // prize mass left before deactivation
	for v := 0; v < nv; v++ {
		active[v] = true
		if v == in.S || v == in.T {
			remain[v] = math.Inf(1)
		} else {
			remain[v] = pi
		}
	}
	// slack[u][v]: remaining growth needed before edge (u,v) goes tight.
	slack := make([][]float64, nv)
	for u := range slack {
		slack[u] = make([]float64, nv)
		copy(slack[u], in.Cost[u])
	}

	var tight [][2]int
	activeCount := nv
	for activeCount > 0 {
		// Find next event: component deactivation or edge tightening.
		dt := math.Inf(1)
		eu, ev := -1, -1
		for v := 0; v < nv; v++ {
			if r := find(v); r == v && active[r] && remain[r] < dt {
				dt = remain[r]
				eu, ev = -1, -1
			}
		}
		for u := 0; u < nv; u++ {
			ru := find(u)
			for v := u + 1; v < nv; v++ {
				rv := find(v)
				if ru == rv {
					continue
				}
				rate := 0.0
				if active[ru] {
					rate++
				}
				if active[rv] {
					rate++
				}
				if rate == 0 {
					continue
				}
				if t := slack[u][v] / rate; t < dt {
					dt = t
					eu, ev = u, v
				}
			}
		}
		if math.IsInf(dt, 1) {
			break // nothing can happen (all remaining comps inactive)
		}
		// Advance time by dt: shrink slacks and prize mass.
		for u := 0; u < nv; u++ {
			ru := find(u)
			for v := u + 1; v < nv; v++ {
				rv := find(v)
				if ru == rv {
					continue
				}
				rate := 0.0
				if active[ru] {
					rate++
				}
				if active[rv] {
					rate++
				}
				slack[u][v] -= rate * dt
				slack[v][u] = slack[u][v]
			}
		}
		for v := 0; v < nv; v++ {
			if r := find(v); r == v && active[r] && !math.IsInf(remain[r], 1) {
				remain[r] -= dt
			}
		}
		if eu >= 0 {
			// Edge event: merge the two moats.
			ru, rv := find(eu), find(ev)
			tight = append(tight, [2]int{eu, ev})
			parent[rv] = ru
			merged := find(ru)
			act := active[ru] || active[rv]
			rem := remain[ru] + remain[rv]
			active[merged] = act
			remain[merged] = rem
			// Satisfied once both terminals share a moat.
			if find(in.S) == find(in.T) && merged == find(in.S) {
				active[merged] = false
			}
		} else {
			// Deactivation event: retire every exhausted active root.
			for v := 0; v < nv; v++ {
				if r := find(v); r == v && active[r] && remain[r] <= 1e-12 {
					active[r] = false
				}
			}
		}
		activeCount = 0
		for v := 0; v < nv; v++ {
			if r := find(v); r == v && active[r] {
				activeCount++
			}
		}
	}

	// Keep only tight edges inside the s-t component, as a spanning tree
	// (the union-find merge order already guarantees forest structure).
	root := find(in.S)
	var tree [][2]int
	for _, e := range tight {
		if find(e[0]) == root {
			tree = append(tree, e)
		}
	}
	return tree
}

// countIntermediates counts distinct non-terminal vertices touched by the
// edge set.
func countIntermediates(tree [][2]int, s, t int) int {
	seen := map[int]bool{}
	for _, e := range tree {
		seen[e[0]] = true
		seen[e[1]] = true
	}
	delete(seen, s)
	delete(seen, t)
	return len(seen)
}

// pruneToN deletes leaf edges (never detaching s or t) until exactly n
// intermediates remain, removing the most expensive leaf edge first.
func pruneToN(in Instance, tree [][2]int, n int) [][2]int {
	edges := append([][2]int(nil), tree...)
	for countIntermediates(edges, in.S, in.T) > n {
		deg := map[int]int{}
		for _, e := range edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		// Candidate leaf edges: an endpoint of degree 1 that is not a
		// terminal.
		bestIdx, bestCost := -1, -1.0
		for i, e := range edges {
			for _, leaf := range []int{e[0], e[1]} {
				if deg[leaf] == 1 && leaf != in.S && leaf != in.T {
					if c := in.Cost[e[0]][e[1]]; c > bestCost {
						bestIdx, bestCost = i, c
					}
				}
			}
		}
		if bestIdx < 0 {
			break // no prunable leaf (terminals only) — stop
		}
		edges = append(edges[:bestIdx], edges[bestIdx+1:]...)
	}
	return edges
}

// treeWalk doubles the tree and shortcuts it into an s → … → t walk that
// visits every tree vertex, traversing each tree edge at most twice.
func treeWalk(in Instance, tree [][2]int) []int {
	adj := map[int][]int{}
	for _, e := range tree {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, l := range adj {
		sort.Ints(l)
	}
	if len(tree) == 0 {
		return []int{in.S, in.T}
	}
	// Find the s-t path in the tree.
	parent := map[int]int{in.S: -1}
	stack := []int{in.S}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if _, ok := parent[v]; !ok {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	onPath := map[int]bool{}
	if _, ok := parent[in.T]; ok {
		for v := in.T; v != -1; v = parent[v] {
			onPath[v] = true
		}
	}
	// Walk the s-t path; at each path vertex first detour into every
	// off-path subtree (enter and return), then continue along the path.
	var walk []int
	visited := map[int]bool{}
	var detour func(u int)
	detour = func(u int) {
		visited[u] = true
		walk = append(walk, u)
		for _, v := range adj[u] {
			if !visited[v] && !onPath[v] {
				detour(v)
				walk = append(walk, u) // return to u (edge doubled)
			}
		}
	}
	cur := in.S
	for {
		detour(cur)
		next := -1
		for _, v := range adj[cur] {
			if onPath[v] && !visited[v] {
				next = v
				break
			}
		}
		if next == -1 {
			break
		}
		cur = next
	}
	if walk[len(walk)-1] != in.T {
		walk = append(walk, in.T) // shortcut jump in the metric closure
	}
	// Shortcut repeated vertices except terminals (keeps cost ≤ doubled
	// tree by the triangle inequality) — but keep revisits of vertices we
	// return through, since the closure edge already shortcuts them.
	return shortcutWalk(walk, in.S, in.T)
}

// shortcutWalk removes repeat visits of non-terminal vertices, relying on
// the metric closure's triangle inequality.
func shortcutWalk(walk []int, s, t int) []int {
	seen := map[int]bool{}
	var out []int
	for i, v := range walk {
		if i == 0 || i == len(walk)-1 {
			out = append(out, v)
			seen[v] = true
			continue
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// truncateAfterN cuts the walk immediately after its n-th distinct
// intermediate and jumps straight to t.
func truncateAfterN(in Instance, walk []int, vis []int, n int) []int {
	if len(vis) <= n {
		return walk
	}
	target := vis[n-1]
	for i, v := range walk {
		if v == target {
			out := append([]int(nil), walk[:i+1]...)
			if out[len(out)-1] != in.T {
				out = append(out, in.T)
			}
			return out
		}
	}
	return walk
}

// fallbackStroll builds a feasible stroll through the n intermediates
// nearest to the s-t midpoint cost. Only used if moat growth degenerates.
func fallbackStroll(in Instance) Result {
	nv := len(in.Cost)
	type vc struct {
		v int
		c float64
	}
	var cands []vc
	for v := 0; v < nv; v++ {
		if v != in.S && v != in.T {
			cands = append(cands, vc{v, in.Cost[in.S][v] + in.Cost[v][in.T]})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].c < cands[j].c })
	walk := []int{in.S}
	for i := 0; i < in.N; i++ {
		walk = append(walk, cands[i].v)
	}
	walk = append(walk, in.T)
	return Result{
		Cost:    walkCost(Matrix(in.Cost), walk),
		Walk:    walk,
		Visited: distinctIntermediates(walk, in.S, in.T),
	}
}
