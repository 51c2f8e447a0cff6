// Package graph provides the small directed-graph substrate used throughout
// the timing analyzer: topological ordering, cycle detection, reachability
// and strongly connected components over dense integer-indexed node sets.
//
// The combinational portions of a design are required to be acyclic (paper
// §3, assumption 2); this package supplies the machinery both to verify that
// assumption and to levelise clusters for the block slack computation of §7.
package graph

import (
	"errors"
	"fmt"
)

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// The zero value is an empty graph; grow it with AddNode/AddEdge.
type Digraph struct {
	out [][]int
	in  [][]int
	m   int // edge count
}

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	return &Digraph{out: make([][]int, n), in: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddNode appends a new node and returns its index.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// AddEdge inserts the directed edge u -> v, rejecting out-of-range
// endpoints. Parallel edges are permitted; callers that need simple graphs
// must deduplicate themselves.
func (g *Digraph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.out))
	}
	g.addEdge(u, v)
	return nil
}

// addEdge is AddEdge for indices already known to be in range.
func (g *Digraph) addEdge(u, v int) {
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// Out returns the successors of u. The returned slice is owned by the graph
// and must not be modified.
func (g *Digraph) Out(u int) []int { return g.out[u] }

// In returns the predecessors of u. The returned slice is owned by the graph
// and must not be modified.
func (g *Digraph) In(u int) []int { return g.in[u] }

// OutDegree returns the number of edges leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of edges entering u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// ErrCycle is returned by TopoSort when the graph contains a directed cycle.
var ErrCycle = errors.New("graph: directed cycle detected")

// CSR is a frozen directed graph in compressed sparse row form over nodes
// 0..len(Start)-2: node u's successors are Succ[Start[u]:Start[u+1]].
// Callers that already hold their adjacency this way (cluster
// pre-processing) query it directly; Digraph's queries flatten into it, so
// each algorithm below exists once.
type CSR struct {
	Start, Succ []int
}

// N returns the number of nodes.
func (g CSR) N() int { return max(len(g.Start)-1, 0) }

// Out returns the successors of u.
func (g CSR) Out(u int) []int { return g.Succ[g.Start[u]:g.Start[u+1]] }

// flatten lays adjacency lists out as a CSR, keeping each list's order.
func flatten(adj [][]int) CSR {
	g := CSR{Start: make([]int, len(adj)+1)}
	for u, vs := range adj {
		g.Start[u+1] = g.Start[u] + len(vs)
	}
	g.Succ = make([]int, 0, g.Start[len(adj)])
	for _, vs := range adj {
		g.Succ = append(g.Succ, vs...)
	}
	return g
}

// TopoSort returns a topological ordering of all nodes, or ErrCycle if the
// graph is cyclic. The ordering is deterministic: among ready nodes the
// smallest index is emitted first (Kahn's algorithm with an ordered
// frontier), so repeated runs over the same graph agree.
func (g CSR) TopoSort() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for _, v := range g.Succ {
		indeg[v]++
	}
	// Min-heap frontier for determinism.
	h := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(v)
		}
	}
	order := make([]int, 0, n)
	for h.len() > 0 {
		u := h.pop()
		order = append(order, u)
		for _, v := range g.Out(u) {
			if indeg[v]--; indeg[v] == 0 {
				h.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// TopoSort is CSR.TopoSort over the graph's current edges.
func (g *Digraph) TopoSort() ([]int, error) { return flatten(g.out).TopoSort() }

// Levels assigns to every node its longest-path depth from any source
// (node with in-degree zero): sources get level 0 and each edge u->v forces
// level(v) >= level(u)+1. Returns ErrCycle on cyclic input.
func (g *Digraph) Levels() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, len(g.out))
	for _, u := range order {
		for _, v := range g.out[u] {
			if lvl[u]+1 > lvl[v] {
				lvl[v] = lvl[u] + 1
			}
		}
	}
	return lvl, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, err := g.TopoSort()
	return err != nil
}

// FindCycle returns one directed cycle as a node sequence (first node not
// repeated at the end), or nil if the graph is acyclic. Used to produce
// actionable diagnostics when a design violates the §3 acyclicity
// assumption.
func (g CSR) FindCycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	n := g.N()
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v := range g.Out(u) {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Back edge u->v closes a cycle v..u.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse so the cycle reads in edge direction.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}

// FindCycle is CSR.FindCycle over the graph's current edges.
func (g *Digraph) FindCycle() []int { return flatten(g.out).FindCycle() }

// MarkReachable sets mark[v] = stamp for every node reachable from any of
// the given sources (sources included). A node counts as unvisited unless
// its mark already equals stamp, so repeated queries over one mask need
// only a fresh stamp each, never a clearing pass. stack is scratch space;
// the grown stack is returned for reuse.
func (g CSR) MarkReachable(mark []int32, stamp int32, stack []int, sources ...int) []int {
	stack = stack[:0]
	for _, s := range sources {
		if mark[s] != stamp {
			mark[s] = stamp
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Out(u) {
			if mark[v] != stamp {
				mark[v] = stamp
				stack = append(stack, v)
			}
		}
	}
	return stack
}

// reachable is MarkReachable as a boolean mask indexed by node.
func (g CSR) reachable(sources []int) []bool {
	mark := make([]int32, g.N())
	g.MarkReachable(mark, 1, nil, sources...)
	seen := make([]bool, len(mark))
	for v, m := range mark {
		seen[v] = m == 1
	}
	return seen
}

// ReachableFrom returns the set of nodes reachable from any of the given
// sources (sources included), as a boolean mask indexed by node.
func (g *Digraph) ReachableFrom(sources ...int) []bool { return flatten(g.out).reachable(sources) }

// CoReachableTo returns the set of nodes from which any of the given sinks is
// reachable (sinks included), as a boolean mask indexed by node.
func (g *Digraph) CoReachableTo(sinks ...int) []bool { return flatten(g.in).reachable(sinks) }

// DisjointSets is a union-find forest over nodes 0..len-1: each entry is a
// node's parent, a root being its own parent.
type DisjointSets []int32

// NewDisjointSets returns n singleton sets.
func NewDisjointSets(n int) DisjointSets {
	s := make(DisjointSets, n)
	for x := range s {
		s[x] = int32(x)
	}
	return s
}

// Find returns the root of x's set, halving the path on the way.
func (s DisjointSets) Find(x int32) int32 {
	for s[x] != x {
		s[x] = s[s[x]]
		x = s[x]
	}
	return x
}

// Union merges the sets of a and b.
func (s DisjointSets) Union(a, b int32) { s[s.Find(a)] = s.Find(b) }

// UndirectedComponents partitions the nodes into weakly connected components,
// ignoring edge direction. Component ids are dense, assigned in increasing
// order of the smallest node index they contain — the numbering cluster
// extraction gives its clusters ("a cluster is a maximal connected network
// of combinational logic elements", §7).
func (g *Digraph) UndirectedComponents() (comp []int, count int) {
	n := len(g.out)
	sets := NewDisjointSets(n)
	for u, vs := range g.out {
		for _, v := range vs {
			sets.Union(int32(u), int32(v))
		}
	}
	comp = make([]int, n)
	byRoot := make([]int, n)
	for i := range byRoot {
		byRoot[i] = -1
	}
	for v := range comp {
		r := sets.Find(int32(v))
		if byRoot[r] < 0 {
			byRoot[r] = count
			count++
		}
		comp[v] = byRoot[r]
	}
	return comp, count
}

// SCC computes strongly connected components (Tarjan, iterative). The result
// assigns each node a component id; ids are in reverse topological order of
// the condensation (a component's id is larger than those of components it
// can reach). Cycles through transparent latches (paper §3: "an interesting
// feature ... a set of combinational logic paths that form a directed cycle
// traversing two, or more, transparent latches") appear as multi-node
// components in the sync-element adjacency graph.
func (g *Digraph) SCC() (comp []int, count int) {
	n := len(g.out)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack, callStack, iterStack []int
	next := 0
	for s := 0; s < n; s++ {
		if index[s] != -1 {
			continue
		}
		callStack = append(callStack[:0], s)
		iterStack = append(iterStack[:0], 0)
		index[s], low[s] = next, next
		next++
		stack = append(stack, s)
		onStack[s] = true
		for len(callStack) > 0 {
			u := callStack[len(callStack)-1]
			i := iterStack[len(iterStack)-1]
			if i < len(g.out[u]) {
				iterStack[len(iterStack)-1]++
				v := g.out[u][i]
				if index[v] == -1 {
					index[v], low[v] = next, next
					next++
					stack = append(stack, v)
					onStack[v] = true
					callStack = append(callStack, v)
					iterStack = append(iterStack, 0)
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			iterStack = iterStack[:len(iterStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1]
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == u {
						break
					}
				}
				count++
			}
		}
	}
	return comp, count
}

// Sources returns all nodes with in-degree zero, in increasing order.
func (g *Digraph) Sources() []int {
	var s []int
	for v := 0; v < len(g.out); v++ {
		if len(g.in[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all nodes with out-degree zero, in increasing order.
func (g *Digraph) Sinks() []int {
	var s []int
	for v := 0; v < len(g.out); v++ {
		if len(g.out[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Induced returns the subgraph induced by keep (nodes where keep[v] is true)
// together with the mapping old->new index (-1 for dropped nodes) and
// new->old.
func (g *Digraph) Induced(keep []bool) (sub *Digraph, oldToNew, newToOld []int) {
	oldToNew = make([]int, len(g.out))
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for v := 0; v < len(g.out); v++ {
		if keep[v] {
			oldToNew[v] = len(newToOld)
			newToOld = append(newToOld, v)
		}
	}
	sub = New(len(newToOld))
	for u := 0; u < len(g.out); u++ {
		if !keep[u] {
			continue
		}
		for _, v := range g.out[u] {
			if keep[v] {
				sub.addEdge(oldToNew[u], oldToNew[v])
			}
		}
	}
	return sub, oldToNew, newToOld
}

// intHeap is a minimal binary min-heap of ints used by TopoSort.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
