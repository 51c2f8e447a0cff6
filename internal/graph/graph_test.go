package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(n int, edges [][2]int) *Digraph {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return g
}

func TestTopoSortLinear(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	want := []int{0, 1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := mk(5, [][2]int{{4, 2}, {3, 2}, {2, 0}, {2, 1}})
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic topo sort: %v vs %v", a, b)
		}
	}
	// Among ready nodes the smallest index is emitted first: 3 before 4.
	if a[0] != 3 || a[1] != 4 {
		t.Fatalf("expected smallest-first frontier, got %v", a)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := mk(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if !g.HasCycle() {
		t.Fatal("HasCycle = false on a 3-cycle")
	}
}

func TestTopoSortEmpty(t *testing.T) {
	g := New(0)
	order, err := g.TopoSort()
	if err != nil || len(order) != 0 {
		t.Fatalf("empty graph: order=%v err=%v", order, err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := New(n)
		// Random DAG: edges only from lower to higher index.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLevels(t *testing.T) {
	//   0 -> 1 -> 3
	//   0 -> 2 -> 3 ; 2 -> 4
	g := mk(5, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {2, 4}})
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2, 2}
	for i := range want {
		if lvl[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lvl, want)
		}
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// Diamond with a long arm: level must be the LONGEST source distance.
	g := mk(5, [][2]int{{0, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}})
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvl[4] != 4 {
		t.Fatalf("lvl[4] = %d, want 4 (longest path)", lvl[4])
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if c := g.FindCycle(); c != nil {
		t.Fatalf("FindCycle on DAG = %v, want nil", c)
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	g := mk(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}})
	c := g.FindCycle()
	if len(c) == 0 {
		t.Fatal("no cycle found")
	}
	// Verify every consecutive pair is an edge, and last->first closes it.
	has := func(u, v int) bool {
		for _, w := range g.Out(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(c); i++ {
		u, v := c[i], c[(i+1)%len(c)]
		if !has(u, v) {
			t.Fatalf("cycle %v: missing edge %d->%d", c, u, v)
		}
	}
}

func TestSelfLoopCycle(t *testing.T) {
	g := mk(2, [][2]int{{0, 0}})
	c := g.FindCycle()
	if len(c) != 1 || c[0] != 0 {
		t.Fatalf("self loop cycle = %v, want [0]", c)
	}
}

func TestReachableFrom(t *testing.T) {
	g := mk(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	r := g.ReachableFrom(0)
	want := []bool{true, true, true, false, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("reach = %v, want %v", r, want)
		}
	}
	r2 := g.ReachableFrom(0, 3)
	if !r2[4] || r2[5] {
		t.Fatalf("multi-source reach = %v", r2)
	}
}

func TestCoReachableTo(t *testing.T) {
	g := mk(5, [][2]int{{0, 1}, {1, 2}, {3, 2}, {2, 4}})
	r := g.CoReachableTo(2)
	want := []bool{true, true, true, true, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("coreach = %v, want %v", r, want)
		}
	}
}

func TestReachCoReachDual(t *testing.T) {
	// Property: v in ReachableFrom(u) <=> u in CoReachableTo(v).
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		u, v := r.Intn(n), r.Intn(n)
		return g.ReachableFrom(u)[v] == g.CoReachableTo(v)[u]
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedComponents(t *testing.T) {
	g := mk(7, [][2]int{{0, 1}, {2, 1}, {3, 4}, {5, 5}})
	comp, n := g.UndirectedComponents()
	if n != 4 {
		t.Fatalf("count = %d, want 4 (comps %v)", n, comp)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Fatalf("3,4 should share a component: %v", comp)
	}
	if comp[5] == comp[0] || comp[6] == comp[0] || comp[5] == comp[6] {
		t.Fatalf("5 and 6 should be singletons: %v", comp)
	}
	// Dense ids assigned by smallest contained node.
	if comp[0] != 0 || comp[3] != 1 || comp[5] != 2 || comp[6] != 3 {
		t.Fatalf("component id ordering: %v", comp)
	}
}

func TestSCCBasic(t *testing.T) {
	// Two 2-cycles joined by an edge plus a tail node.
	g := mk(5, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {3, 4}})
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("scc count = %d (%v), want 3", n, comp)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[2] {
		t.Fatalf("scc assignment wrong: %v", comp)
	}
	// Reverse-topological ids: {0,1} reaches {2,3} reaches {4}.
	if !(comp[0] > comp[2] && comp[2] > comp[4]) {
		t.Fatalf("scc ids not reverse-topological: %v", comp)
	}
}

func TestSCCAllSingletonsOnDAG(t *testing.T) {
	g := mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	_, n := g.SCC()
	if n != 4 {
		t.Fatalf("scc count on DAG = %d, want 4", n)
	}
}

func TestSCCCountMatchesCycleFreedom(t *testing.T) {
	// Property: graph acyclic (ignoring self loops: none generated here
	// since u<v) <=> every SCC is a singleton.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		g := New(n)
		cyclic := r.Intn(2) == 1
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		if cyclic {
			// Force one cycle.
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				b = (a + 1) % n
			}
			if a > b {
				a, b = b, a
			}
			g.AddEdge(a, b)
			g.AddEdge(b, a)
		}
		_, c := g.SCC()
		singletons := c == n
		return singletons == !g.HasCycle()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := mk(5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}})
	src, snk := g.Sources(), g.Sinks()
	if len(src) != 2 || src[0] != 0 || src[1] != 1 {
		t.Fatalf("sources = %v", src)
	}
	if len(snk) != 2 || snk[0] != 3 || snk[1] != 4 {
		t.Fatalf("sinks = %v", snk)
	}
}

func TestInduced(t *testing.T) {
	g := mk(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	keep := []bool{true, true, true, false, false}
	sub, o2n, n2o := g.Induced(keep)
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced N=%d M=%d", sub.N(), sub.M())
	}
	if o2n[3] != -1 || o2n[0] != 0 {
		t.Fatalf("oldToNew = %v", o2n)
	}
	if len(n2o) != 3 || n2o[2] != 2 {
		t.Fatalf("newToOld = %v", n2o)
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(2)
	for _, e := range [][2]int{{0, 5}, {-1, 0}, {2, 0}, {0, -3}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("edge %v accepted", e)
		}
	}
	if g.M() != 0 {
		t.Fatalf("rejected edges counted: M=%d", g.M())
	}
}

func TestAddNode(t *testing.T) {
	g := New(1)
	id := g.AddNode()
	if id != 1 || g.N() != 2 {
		t.Fatalf("AddNode id=%d N=%d", id, g.N())
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 {
		t.Fatal("degree bookkeeping wrong after AddNode")
	}
}

func TestInOut(t *testing.T) {
	g := mk(3, [][2]int{{0, 1}, {2, 1}})
	if len(g.In(1)) != 2 || g.In(1)[0] != 0 || g.In(1)[1] != 2 {
		t.Fatalf("In(1) = %v", g.In(1))
	}
	if len(g.In(0)) != 0 || len(g.Out(1)) != 0 {
		t.Fatal("empty adjacency wrong")
	}
	if g.M() != 2 || g.N() != 3 {
		t.Fatal("counts wrong")
	}
}

func TestMarkReachableStampsWithoutClearing(t *testing.T) {
	g := flatten(mk(5, [][2]int{{0, 1}, {1, 2}, {3, 4}}).out)
	mark := make([]int32, g.N())
	stack := g.MarkReachable(mark, 1, nil, 0)
	stack = g.MarkReachable(mark, 2, stack, 3)
	want := []int32{1, 1, 1, 2, 2}
	for v := range want {
		if mark[v] != want[v] {
			t.Fatalf("marks = %v, want %v", mark, want)
		}
	}
	// A node stamped by an earlier query is still walked by a later one.
	g.MarkReachable(mark, 3, stack, 1)
	if mark[1] != 3 || mark[2] != 3 || mark[0] != 1 {
		t.Fatalf("marks after third query = %v", mark)
	}
}

func TestDisjointSets(t *testing.T) {
	s := NewDisjointSets(5)
	s.Union(0, 3)
	s.Union(4, 3)
	if s.Find(0) != s.Find(4) {
		t.Fatal("0 and 4 not joined through 3")
	}
	if s.Find(1) == s.Find(0) || s.Find(1) == s.Find(2) {
		t.Fatal("singletons merged")
	}
}
