// Package graph provides the weighted undirected graph substrate used to
// model policy-preserving data centers (PPDCs): adjacency storage, Dijkstra
// and BFS shortest paths, cached all-pairs shortest paths, metric closure,
// diameter, and path reconstruction.
//
// Vertices are dense integer IDs in [0, Order()). Edge weights are
// non-negative float64 costs (network delay or energy per unit of traffic,
// per the paper's topology-aware cost model).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the cost of an unreachable vertex pair.
var Inf = math.Inf(1)

// Edge is one endpoint record in an adjacency list.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted undirected multigraph with dense integer vertices.
// The zero value is an empty graph; grow it with AddVertex/AddEdge.
type Graph struct {
	adj [][]Edge
	m   int // number of undirected edges
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]Edge, n)}
}

// Order returns the number of vertices.
func (g *Graph) Order() int { return len(g.adj) }

// Size returns the number of undirected edges.
func (g *Graph) Size() int { return g.m }

// AddEdge inserts an undirected edge {u,v} with weight w.
// It panics on out-of-range vertices, self-loops, or negative weights,
// all of which indicate a topology construction bug.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj)))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", w, u, v))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	g.m++
}

// HasEdge reports whether at least one {u,v} edge exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the minimum weight among parallel {u,v} edges,
// or Inf when no such edge exists.
func (g *Graph) EdgeWeight(u, v int) float64 {
	w := Inf
	if u < 0 || u >= len(g.adj) {
		return w
	}
	for _, e := range g.adj[u] {
		if e.To == v && e.Weight < w {
			w = e.Weight
		}
	}
	return w
}

// Neighbors returns the adjacency list of u. The returned slice is shared
// with the graph and must not be mutated.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// CloneMapped returns a copy of the graph with the same vertex set,
// filtered and re-weighted in one pass: an edge for which mapEdge(u, v, w)
// returns (w', true) survives with weight w', one returning false is
// dropped. mapEdge must be symmetric in its keep decision AND its weight
// (mapEdge(u,v,w) and mapEdge(v,u,w) must agree): both directions of an
// undirected edge go through it, and an asymmetric function would
// corrupt the adjacency invariant. Adjacency order of the kept edges is
// preserved, so mapping every edge to (w, true) reproduces the original
// graph exactly — internal/fault's Rebuild oracle relies on this to hold
// its degraded clone bit for bit to the weight views production takes.
// Every kept edge lands in one backing array (two allocations per clone),
// each vertex's list capped at its own length, so a later AddEdge
// reallocates that list rather than writing over its neighbour's.
func (g *Graph) CloneMapped(mapEdge func(u, v int, w float64) (float64, bool)) *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj))}
	buf := make([]Edge, 0, 2*g.m)
	for u, es := range g.adj {
		lo := len(buf)
		for _, e := range es {
			if w, ok := mapEdge(u, e.To, e.Weight); ok {
				buf = append(buf, Edge{To: e.To, Weight: w})
			}
		}
		c.adj[u] = buf[lo:len(buf):len(buf)]
	}
	c.m = len(buf) / 2
	return c
}

// Dijkstra computes single-source shortest path costs and predecessor
// links from src. dist[v] == Inf marks unreachable v; prev[src] == -1 and
// prev of unreachable vertices is -1.
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	n := len(g.adj)
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	h := &costHeap{items: []heapItem{{v: src, cost: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if it.cost > dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			if nd := it.cost + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.v
				h.push(heapItem{v: e.To, cost: nd})
			}
		}
	}
	return dist, prev
}

// bfsHops returns hop counts from src, ignoring weights. Unreachable
// vertices get -1.
func (g *Graph) bfsHops(src int) []int {
	n := len(g.adj)
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if hops[e.To] == -1 {
				hops[e.To] = hops[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return hops
}

// Connected reports whether the graph is connected (vacuously true for
// Order() <= 1).
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	hops := g.bfsHops(0)
	for _, h := range hops {
		if h == -1 {
			return false
		}
	}
	return true
}

// Edges returns all undirected edges with u < v, sorted by (u, v).
// Parallel edges produce multiple entries.
type EdgeRecord struct {
	U, V   int
	Weight float64
}

// Edges lists every undirected edge once (u < v), sorted.
func (g *Graph) Edges() []EdgeRecord {
	var out []EdgeRecord
	for u, es := range g.adj {
		for _, e := range es {
			if u < e.To {
				out = append(out, EdgeRecord{U: u, V: e.To, Weight: e.Weight})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].Weight < out[j].Weight
	})
	return out
}
