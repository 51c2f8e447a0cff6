// Package cluster elaborates a resolved netlist into the analyzable timing
// network of the paper: it identifies synchronising elements (replicating
// them per control pulse, §4), analyses control paths from the clock
// generators to every control input (computing Oat and the §3 monotonic
// inversion parity), extracts the combinational *clusters* ("a maximal
// connected network of combinational logic elements", §7), verifies the §3
// acyclicity assumption inside each, and runs the break-open pre-processing
// that decides the minimum set of analysis passes per cluster.
//
// Enable paths (§4) — combinational paths from a synchronising-element
// output (or a primary input) into the control input of another element
// through clock-gating logic — are supported conservatively: each enable
// net entering a control cone becomes a virtual capture endpoint whose
// ideal closure is the *leading* edge of every gated pulse, advanced by the
// worst-case delay of the gating logic between the enable net and the
// control pin. The clock-side spine of the cone must still be a monotonic
// function of exactly one clock; the enable side is ordinary data logic.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"hummingbird/internal/breakopen"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/graph"
	"hummingbird/internal/netlist"
	"hummingbird/internal/syncelem"
)

// Arc is one combinational timing arc between two nets, carrying its
// evaluated delays.
type Arc struct {
	Inst     string // owning instance, for reporting and re-synthesis
	FromPin  string
	ToPin    string
	From, To int // net ids
	Sense    celllib.Sense
	D        delaycalc.Delays
}

// In is a cluster input: one generic-element occurrence asserting onto a
// member net.
type In struct {
	Elem int // index into Network.Elems
	Net  int
}

// Out is a cluster output: one generic-element occurrence whose data input
// is fed from a member net.
type Out struct {
	Elem int // index into Network.Elems
	Net  int
}

// Cluster is one maximal connected combinational network, pre-processed for
// block analysis.
type Cluster struct {
	ID   int
	Nets []int // member net ids, sorted
	Arcs []Arc
	// Order is a topological order of the member nets (net ids).
	Order   []int
	Inputs  []In
	Outputs []Out
	// Reach[i][o] reports whether a combinational path connects input i's
	// net to output o's net (same net counts: a direct latch→latch
	// connection is a zero-delay path).
	Reach [][]bool
	// Plan is the break-open pass plan; Plan.Assign is keyed by output
	// position within Outputs.
	Plan *breakopen.Plan

	// netLocal maps a global net id to the net's index within the Nets
	// of the cluster owning it; every cluster of a network shares it, so
	// LocalIndex confirms ownership against Nets.
	netLocal []int32
	// arcStart/arcIdx are the adjacency of arcs leaving each member net,
	// by local index: the arcs out of local net li are
	// arcIdx[arcStart[li]:arcStart[li+1]], indices into Arcs in order.
	arcStart []int
	arcIdx   []int
}

// LocalIndex returns the position of net id within Nets, or -1.
func (c *Cluster) LocalIndex(net int) int {
	if net < 0 || net >= len(c.netLocal) {
		return -1
	}
	if li := int(c.netLocal[net]); li < len(c.Nets) && c.Nets[li] == net {
		return li
	}
	return -1
}

// ArcsFrom returns the indices into Arcs of arcs leaving the given net.
func (c *Cluster) ArcsFrom(net int) []int {
	li := c.LocalIndex(net)
	if li < 0 {
		return nil
	}
	return c.arcIdx[c.arcStart[li]:c.arcStart[li+1]]
}

// SyncSite is one physical synchronisation point: a latch/FF/tristate
// instance, a primary port, or a virtual enable-capture endpoint, expanded
// into one or more generic elements.
type SyncSite struct {
	Name   string
	IsPort bool
	Dir    netlist.PortDir // ports and enable endpoints only
	Kind   celllib.Kind
	// DataNet is the net feeding the data input (-1 for primary inputs);
	// OutNet is the driven net (-1 for primary outputs and enable
	// endpoints); CtrlNet is the control net (-1 for ports/endpoints).
	DataNet, OutNet, CtrlNet int
	Sig                      int
	Inverted                 bool
	CtrlMax, CtrlMin         clock.Time
	// Elems indexes the site's generic elements within Network.Elems.
	Elems []int
}

// Network is the fully elaborated timing view of one design.
type Network struct {
	Lib    *celllib.Library
	Design *netlist.Design
	Clocks *clock.Set
	Calc   *delaycalc.Calc

	// Nets and NetIdx are the net table of the delay calculator's index
	// (delaycalc.Calc.Index): net ids are positions in sorted-name order.
	Nets   []string
	NetIdx map[string]int
	// Stats are the design's Table-1 statistics.
	Stats netlist.Stats

	Sites []SyncSite
	// Elems holds every generic element occurrence; Elems[i].Inst matches
	// the owning site's Name.
	Elems    []*syncelem.Element
	SiteOf   []int // element index -> site index
	Clusters []*Cluster

	// EdgeTimes are the distinct clock edge times (break candidates).
	EdgeTimes []clock.Time

	// ctrlNets marks the pure clock-cone nets (clock sources, buffers and
	// gating-gate outputs); enable-side nets stay false and remain data.
	ctrlNets []bool
}

// IsControlNet reports whether the net (global id) lies in a pure clock
// cone: a clock source, buffered clock or gating-gate output. Edits that
// touch control nets re-shape the clock cones and the sites built from
// them, so the incremental engine treats them as topology changes.
func (nw *Network) IsControlNet(id int) bool {
	return id >= 0 && id < len(nw.ctrlNets) && nw.ctrlNets[id]
}

// enableIn is one enable net feeding a control cone, with the worst-case
// gating-logic delay from that net to the control pin.
type enableIn struct {
	net         int
	delayToCtrl clock.Time
}

// Build elaborates a resolved design (every instance reference must resolve
// in lib — flatten or roll up hierarchy first). It works over the net
// index of calc, which must have been built for design.
func Build(lib *celllib.Library, design *netlist.Design, cs *clock.Set, calc *delaycalc.Calc) (*Network, error) {
	idx := calc.Index()
	nw := &Network{Lib: lib, Design: design, Clocks: cs, Calc: calc,
		Nets: idx.Nets, NetIdx: idx.NetIdx, Stats: idx.Stats(design, lib)}
	seen := map[clock.Time]bool{}
	for _, e := range cs.Edges() {
		if !seen[e.At] {
			seen[e.At] = true
			nw.EdgeTimes = append(nw.EdgeTimes, e.At)
		}
	}
	sort.Slice(nw.EdgeTimes, func(i, j int) bool { return nw.EdgeTimes[i] < nw.EdgeTimes[j] })

	cells := make([]*celllib.Cell, len(design.Instances))
	for i := range design.Instances {
		inst := &design.Instances[i]
		if cells[i] = lib.Cell(inst.Ref); cells[i] == nil {
			return nil, fmt.Errorf("cluster: instance %s: unresolved reference %q (flatten or roll up first)", inst.Name, inst.Ref)
		}
	}
	combArcs := nw.collectArcs(idx, cells)
	if err := nw.buildSites(idx, cells, combArcs); err != nil {
		return nil, err
	}
	if err := nw.extractClusters(combArcs); err != nil {
		return nil, err
	}
	return nw, nil
}

// collectArcs gathers every combinational timing arc (arcs of sync cells are
// handled through the element model instead), in instance and cell-arc
// order.
func (nw *Network) collectArcs(idx *netlist.Index, cells []*celllib.Cell) []Arc {
	// ends memoizes, per cell, the pin positions of each arc's endpoints.
	ends := map[*celllib.Cell][][2]int{}
	n := 0
	for _, cell := range cells {
		if !cell.IsSync() {
			n += len(cell.Arcs)
		}
	}
	arcs := make([]Arc, 0, n)
	for i, cell := range cells {
		if cell.IsSync() {
			continue
		}
		e, ok := ends[cell]
		if !ok {
			e = make([][2]int, len(cell.Arcs))
			for ai, arc := range cell.Arcs {
				e[ai] = [2]int{pinPos(cell, arc.From), pinPos(cell, arc.To)}
			}
			ends[cell] = e
		}
		inst := &nw.Design.Instances[i]
		slots := idx.Slots(i)
		for ai := range cell.Arcs {
			from, to := slots[e[ai][0]], slots[e[ai][1]]
			if from < 0 || to < 0 {
				continue
			}
			arc := &cell.Arcs[ai]
			arcs = append(arcs, Arc{
				Inst: inst.Name, FromPin: arc.From, ToPin: arc.To,
				From: int(from), To: int(to),
				Sense: arc.Sense,
				D:     nw.Calc.ArcDelaysAt(inst, arc, int(to)),
			})
		}
	}
	return arcs
}

// pinPos returns the position of the named pin within cell.Pins. Library
// validation guarantees every arc endpoint names a pin.
func pinPos(cell *celllib.Cell, name string) int {
	for k := range cell.Pins {
		if cell.Pins[k].Name == name {
			return k
		}
	}
	panic(fmt.Sprintf("cluster: cell %s has no pin %s", cell.Name, name))
}

// ctrlInfo is the memoized control-path analysis result for one net.
type ctrlInfo struct {
	sig        int
	parityEven bool // some clock path with an even number of inversions
	parityOdd  bool
	maxDelay   clock.Time
	minDelay   clock.Time
	traced     bool
	visiting   bool
	// isEnable marks a net whose cone contains no clock at all: it is
	// driven (transitively) by synchronising-element outputs or primary
	// inputs — the data side of an enable path (§4).
	isEnable bool
}

// buildSites identifies synchronising instances and ports, analyses their
// control paths (including enable-path classification) and builds the
// generic elements.
func (nw *Network) buildSites(idx *netlist.Index, cells []*celllib.Cell, arcs []Arc) error {
	n := len(nw.Nets)
	// inStart/inArc list the arcs into each net: inArc[inStart[net]:
	// inStart[net+1]], in arc order.
	inStart := make([]int32, n+1)
	for i := range arcs {
		inStart[arcs[i].To+1]++
	}
	for net := 0; net < n; net++ {
		inStart[net+1] += inStart[net]
	}
	inArc := make([]int32, len(arcs))
	fill := slices.Clone(inStart[:n])
	for i := range arcs {
		inArc[fill[arcs[i].To]] = int32(i)
		fill[arcs[i].To]++
	}
	into := func(net int) []int32 { return inArc[inStart[net]:inStart[net+1]] }

	clockSig := make([]int, n) // net id -> clock signal index, or -1
	for net := range clockSig {
		clockSig[net] = -1
	}
	for ci, c := range nw.Design.Clocks {
		if net, ok := nw.NetIdx[c.Name]; ok {
			clockSig[net] = ci
		}
	}
	// dataSrc marks the nets driven by synchronising-element outputs or
	// primary inputs.
	dataSrc := make([]bool, n)
	sites := len(nw.Design.Ports)
	for i, cell := range cells {
		if !cell.IsSync() {
			continue
		}
		sites++
		for k, net := range idx.Slots(i) {
			if net >= 0 && cell.Pins[k].Dir == celllib.Out {
				dataSrc[net] = true
			}
		}
	}
	for _, p := range nw.Design.Ports {
		if p.Dir == netlist.Input {
			dataSrc[nw.NetIdx[p.Name]] = true
		}
	}

	// Every port and synchronising instance is a site of at least one
	// element; enable endpoints and multi-pulse elements grow the slices.
	nw.Sites = make([]SyncSite, 0, sites)
	nw.Elems = make([]*syncelem.Element, 0, sites)
	nw.SiteOf = make([]int, 0, sites)

	memo := make([]ctrlInfo, n)
	var trace func(net int) (*ctrlInfo, error)
	trace = func(net int) (*ctrlInfo, error) {
		ci := &memo[net]
		if ci.traced {
			if ci.visiting {
				return nil, fmt.Errorf("cluster: combinational cycle in control path through net %q", nw.Nets[net])
			}
			return ci, nil
		}
		*ci = ctrlInfo{sig: -1, traced: true}
		if sig := clockSig[net]; sig >= 0 {
			ci.sig = sig
			ci.parityEven = true
			return ci, nil
		}
		// Synchronising-element outputs and primary inputs terminate the
		// cone on its data side: the net is an enable (§4).
		if dataSrc[net] {
			ci.isEnable = true
			return ci, nil
		}
		preds := into(net)
		if len(preds) == 0 {
			return nil, fmt.Errorf("cluster: control input traces back to undriven net %q", nw.Nets[net])
		}
		ci.visiting = true
		sawClock := false
		first := true
		for _, ai := range preds {
			a := &arcs[ai]
			up, err := trace(a.From)
			if err != nil {
				return nil, err
			}
			if up.isEnable {
				continue // enable side: no monotonicity or delay role
			}
			sawClock = true
			if a.Sense == celllib.NonUnate {
				return nil, fmt.Errorf("cluster: control path through instance %s is non-monotonic in the clock (non-unate arc); violates the §3 control assumption", a.Inst)
			}
			if ci.sig == -1 {
				ci.sig = up.sig
			} else if up.sig != ci.sig {
				return nil, fmt.Errorf("cluster: net %q is a function of more than one clock signal", nw.Nets[net])
			}
			inv := a.Sense == celllib.NegativeUnate
			pe := (up.parityEven && !inv) || (up.parityOdd && inv)
			po := (up.parityOdd && !inv) || (up.parityEven && inv)
			ci.parityEven = ci.parityEven || pe
			ci.parityOdd = ci.parityOdd || po
			if d := up.maxDelay + a.D.Max(); d > ci.maxDelay {
				ci.maxDelay = d
			}
			md := up.minDelay + a.D.Min()
			if first || md < ci.minDelay {
				ci.minDelay = md
			}
			first = false
		}
		ci.visiting = false
		if !sawClock {
			ci.isEnable = true
			return ci, nil
		}
		if ci.parityEven && ci.parityOdd {
			return nil, fmt.Errorf("cluster: net %q has control paths of both inversion parities; violates the §3 monotonic-control assumption", nw.Nets[net])
		}
		return ci, nil
	}

	// collectEnables returns, for every enable net feeding one element's
	// control cone, the worst-case combinational delay from that net to the
	// control pin. The cone is acyclic (trace rejects cycles), so a
	// worklist longest-path over the cone is exact. Its per-net scratch is
	// shared across calls: an entry counts only when its generation is
	// the current call's.
	downTo, best := make([]clock.Time, n), make([]clock.Time, n)
	downGen, bestGen := make([]int32, n), make([]int32, n)
	var gen int32
	var work, enNets []int
	collectEnables := func(ctrlNet int) []enableIn {
		gen++
		downTo[ctrlNet], downGen[ctrlNet] = 0, gen
		work, enNets = append(work[:0], ctrlNet), enNets[:0]
		for len(work) > 0 {
			net := work[len(work)-1]
			work = work[:len(work)-1]
			acc := downTo[net]
			for _, ai := range into(net) {
				a := &arcs[ai]
				up := &memo[a.From]
				if !up.traced {
					continue
				}
				d := acc + a.D.Max()
				if up.isEnable {
					if bestGen[a.From] != gen {
						bestGen[a.From], best[a.From] = gen, d
						enNets = append(enNets, a.From)
					} else if d > best[a.From] {
						best[a.From] = d
					}
					continue
				}
				if downGen[a.From] != gen || d > downTo[a.From] {
					downGen[a.From], downTo[a.From] = gen, d
					work = append(work, a.From)
				}
			}
		}
		sort.Ints(enNets)
		out := make([]enableIn, len(enNets))
		for i, net := range enNets {
			out[i] = enableIn{net: net, delayToCtrl: best[net]}
		}
		return out
	}

	addSite := func(site SyncSite, elems []*syncelem.Element) {
		siteIdx := len(nw.Sites)
		site.Elems = make([]int, len(elems))
		for k, e := range elems {
			site.Elems[k] = len(nw.Elems)
			nw.Elems = append(nw.Elems, e)
			nw.SiteOf = append(nw.SiteOf, siteIdx)
		}
		nw.Sites = append(nw.Sites, site)
	}

	for i, cell := range cells {
		if !cell.IsSync() {
			continue
		}
		inst := &nw.Design.Instances[i]
		slots := idx.Slots(i)
		ctrlK, dataK, outK, nData := -1, -1, -1, 0
		for k, p := range cell.Pins {
			if p.Role == celllib.Control && ctrlK < 0 {
				ctrlK = k
			}
			if p.Dir == celllib.In && p.Role == celllib.Data {
				if nData == 0 {
					dataK = k
				}
				nData++
			}
			if p.Dir == celllib.Out && outK < 0 {
				outK = k
			}
		}
		if ctrlK < 0 || slots[ctrlK] < 0 {
			return fmt.Errorf("cluster: %s: control pin %s unconnected", inst.Name, cell.ControlPin())
		}
		ctrlNet := int(slots[ctrlK])
		ci, err := trace(ctrlNet)
		if err != nil {
			return fmt.Errorf("%w (control input of %s)", err, inst.Name)
		}
		if ci.isEnable || ci.sig < 0 {
			return fmt.Errorf("cluster: control input of %s is not a function of any clock", inst.Name)
		}
		if nData != 1 {
			return fmt.Errorf("cluster: %s (%s): synchronising elements must have exactly one data input, found %d", inst.Name, inst.Ref, nData)
		}
		if slots[dataK] < 0 {
			return fmt.Errorf("cluster: %s: data pin %s unconnected", inst.Name, cell.Pins[dataK].Name)
		}
		dataNet, outNet := int(slots[dataK]), -1
		if outK >= 0 {
			outNet = int(slots[outK])
		}
		inverted := ci.parityOdd
		elems, err := syncelem.Build(inst.Name, cell.Kind, cell.Sync, nw.Clocks, ci.sig, inverted, ci.maxDelay, ci.minDelay)
		if err != nil {
			return err
		}
		addSite(SyncSite{
			Name: inst.Name, Kind: cell.Kind,
			DataNet: dataNet, OutNet: outNet, CtrlNet: ctrlNet,
			Sig: ci.sig, Inverted: inverted,
			CtrlMax: ci.maxDelay, CtrlMin: ci.minDelay,
		}, elems)

		// Enable paths into this element's control cone: one virtual
		// capture endpoint per enable net per control pulse, closing at
		// the pulse's leading edge advanced by the gating-logic depth
		// (the enable must be stable before the pulse it gates begins;
		// the clock network's own delay is conservatively ignored).
		for idx, en := range collectEnables(ctrlNet) {
			name := fmt.Sprintf("%s.en%d", inst.Name, idx)
			var enElems []*syncelem.Element
			for k, se := range elems {
				enElems = append(enElems, &syncelem.Element{
					Inst: name, Occur: k, Kind: celllib.EdgeTriggered,
					Sig:         ci.sig,
					IdealAssert: se.LeadAt, AssertEdge: se.LeadEdge,
					IdealClose: se.LeadAt, CloseEdge: se.LeadEdge,
					LeadEdge: se.LeadEdge, TrailEdge: se.LeadEdge,
					LeadAt: se.LeadAt, TrailAt: se.LeadAt,
					Port: true, PortOffset: -en.delayToCtrl,
				})
			}
			addSite(SyncSite{
				Name: name, IsPort: true, Dir: netlist.Output,
				Kind: celllib.EdgeTriggered, Sig: ci.sig,
				DataNet: en.net, OutNet: -1, CtrlNet: -1,
			}, enElems)
		}
	}

	for _, p := range nw.Design.Ports {
		if p.RefClock == "" {
			return fmt.Errorf("cluster: primary %s %q needs a clock reference for timing analysis", p.Dir, p.Name)
		}
		sig := nw.Clocks.Index(p.RefClock)
		if sig < 0 {
			return fmt.Errorf("cluster: port %q references unknown clock %q", p.Name, p.RefClock)
		}
		elems, err := syncelem.BuildPort(p.Name, nw.Clocks, sig, p.RefEdge, p.Offset)
		if err != nil {
			return err
		}
		net := nw.NetIdx[p.Name]
		site := SyncSite{Name: p.Name, IsPort: true, Dir: p.Dir, Kind: celllib.EdgeTriggered, Sig: sig,
			DataNet: -1, OutNet: -1, CtrlNet: -1}
		if p.Dir == netlist.Input {
			site.OutNet = net
		} else {
			site.DataNet = net
		}
		addSite(site, elems)
	}

	// The pure clock cone: clock source nets plus every traced net that is
	// not on the enable side.
	nw.ctrlNets = make([]bool, n)
	for net := range nw.ctrlNets {
		nw.ctrlNets[net] = clockSig[net] >= 0 || (memo[net].traced && !memo[net].isEnable)
	}
	return nil
}

// extractClusters partitions the combinational arcs into maximal connected
// clusters, excluding the pure clock cones, and pre-processes each.
func (nw *Network) extractClusters(arcs []Arc) error {
	n := len(nw.Nets)
	isCtrl := nw.ctrlNets
	// A clock-cone net consumed as data is outside the supported class.
	for _, s := range nw.Sites {
		if s.DataNet >= 0 && isCtrl[s.DataNet] {
			return fmt.Errorf("cluster: control/clock net %q feeds the data input of %s; clock nets as data are not supported", nw.Nets[s.DataNet], s.Name)
		}
	}
	for i := range arcs {
		if isCtrl[arcs[i].From] && !isCtrl[arcs[i].To] {
			return fmt.Errorf("cluster: control net %q feeds data logic through instance %s", nw.Nets[arcs[i].From], arcs[i].Inst)
		}
	}
	isData := func(a *Arc) bool { return !isCtrl[a.From] && !isCtrl[a.To] }

	// Weak components over data arcs, by union-find. Member nets: nets
	// that carry data arcs or touch a sync terminal.
	comps := graph.NewDisjointSets(n)
	touches := make([]bool, n)
	for i := range arcs {
		if a := &arcs[i]; isData(a) {
			comps.Union(int32(a.From), int32(a.To))
			touches[a.From], touches[a.To] = true, true
		}
	}
	for _, s := range nw.Sites {
		if s.OutNet >= 0 && !isCtrl[s.OutNet] {
			touches[s.OutNet] = true
		}
		if s.DataNet >= 0 {
			touches[s.DataNet] = true
		}
	}

	// Clusters are numbered in order of their smallest member net: a
	// component becomes a cluster when the ascending walk first meets it.
	// cid[net] is the cluster of a member net, -1 elsewhere.
	cid := make([]int32, n)
	byRoot := make([]int32, n)
	for net := range byRoot {
		byRoot[net] = -1
	}
	type size struct{ nets, arcs, ins, outs int }
	var sizes []size
	for net := 0; net < n; net++ {
		cid[net] = -1
		if !touches[net] || isCtrl[net] {
			continue
		}
		r := comps.Find(int32(net))
		if byRoot[r] < 0 {
			byRoot[r] = int32(len(sizes))
			sizes = append(sizes, size{})
		}
		cid[net] = byRoot[r]
		sizes[cid[net]].nets++
	}
	for i := range arcs {
		if a := &arcs[i]; isData(a) {
			sizes[cid[a.From]].arcs++
		}
	}
	// An element's output endpoint feeds its OutNet's cluster, its
	// capture endpoint is its DataNet's.
	inCl := func(site *SyncSite) int32 {
		if site.OutNet >= 0 && touches[site.OutNet] && !isCtrl[site.OutNet] {
			return cid[site.OutNet]
		}
		return -1
	}
	outCl := func(site *SyncSite) int32 {
		if site.DataNet >= 0 && touches[site.DataNet] {
			return cid[site.DataNet]
		}
		return -1
	}
	for ei := range nw.Elems {
		site := &nw.Sites[nw.SiteOf[ei]]
		if c := inCl(site); c >= 0 {
			sizes[c].ins++
		}
		if c := outCl(site); c >= 0 {
			sizes[c].outs++
		}
	}

	netLocal := make([]int32, n)
	nw.Clusters = make([]*Cluster, len(sizes))
	for c, sz := range sizes {
		nw.Clusters[c] = &Cluster{ID: c, netLocal: netLocal,
			Nets: make([]int, 0, sz.nets), Arcs: make([]Arc, 0, sz.arcs),
			Inputs: make([]In, 0, sz.ins), Outputs: make([]Out, 0, sz.outs),
			arcStart: make([]int, sz.nets+1), arcIdx: make([]int, sz.arcs)}
	}
	for net := 0; net < n; net++ {
		if c := cid[net]; c >= 0 {
			cl := nw.Clusters[c]
			netLocal[net] = int32(len(cl.Nets))
			cl.Nets = append(cl.Nets, net)
		}
	}
	for i := range arcs {
		if a := &arcs[i]; isData(a) {
			cl := nw.Clusters[cid[a.From]]
			cl.arcStart[netLocal[a.From]+1]++
			cl.Arcs = append(cl.Arcs, *a)
		}
	}
	for ei := range nw.Elems {
		site := &nw.Sites[nw.SiteOf[ei]]
		if c := inCl(site); c >= 0 {
			nw.Clusters[c].Inputs = append(nw.Clusters[c].Inputs, In{Elem: ei, Net: site.OutNet})
		}
		if c := outCl(site); c >= 0 {
			nw.Clusters[c].Outputs = append(nw.Clusters[c].Outputs, Out{Elem: ei, Net: site.DataNet})
		}
	}

	var sc preScratch
	for _, cl := range nw.Clusters {
		for li := range cl.Nets {
			cl.arcStart[li+1] += cl.arcStart[li]
		}
		fill := append(sc.fill[:0], cl.arcStart[:len(cl.Nets)]...)
		for ai := range cl.Arcs {
			li := netLocal[cl.Arcs[ai].From]
			cl.arcIdx[fill[li]] = ai
			fill[li]++
		}
		sc.fill = fill
		if err := nw.preprocess(cl, &sc); err != nil {
			return err
		}
	}
	return nil
}

// preScratch is preprocess's scratch, reused from cluster to cluster.
type preScratch struct {
	fill, succ, stack []int
	mark              []int32
	stamp             int32
}

// preprocess checks acyclicity, orders the cluster, computes input→output
// reachability and solves the break-open plan (§7).
func (nw *Network) preprocess(cl *Cluster, sc *preScratch) error {
	nl := len(cl.Nets)
	// succ lists each local net's successors, parallel to arcIdx.
	succ := sc.succ[:0]
	for _, ai := range cl.arcIdx {
		succ = append(succ, int(cl.netLocal[cl.Arcs[ai].To]))
	}
	sc.succ = succ
	local := graph.CSR{Start: cl.arcStart, Succ: succ}
	orderLocal, err := local.TopoSort()
	if err != nil {
		cyc := local.FindCycle()
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = nw.Nets[cl.Nets[v]]
		}
		return fmt.Errorf("cluster %d: combinational cycle through nets %v (violates the §3 acyclicity assumption)", cl.ID, names)
	}
	for i, v := range orderLocal {
		orderLocal[i] = cl.Nets[v]
	}
	cl.Order = orderLocal

	// Reachability input→output: one walk per input, marking the local
	// nets it reaches with a fresh stamp.
	if len(sc.mark) < nl {
		sc.mark = make([]int32, len(nw.Nets))
	}
	cl.Reach = make([][]bool, len(cl.Inputs))
	rows := make([]bool, len(cl.Inputs)*len(cl.Outputs))
	for ii, in := range cl.Inputs {
		sc.stamp++
		sc.stack = local.MarkReachable(sc.mark, sc.stamp, sc.stack, int(cl.netLocal[in.Net]))
		row := rows[ii*len(cl.Outputs) : (ii+1)*len(cl.Outputs) : (ii+1)*len(cl.Outputs)]
		for oi, out := range cl.Outputs {
			row[oi] = sc.mark[cl.netLocal[out.Net]] == sc.stamp
		}
		cl.Reach[ii] = row
	}
	// Break-open outputs.
	outs := make([]breakopen.Output, len(cl.Outputs))
	for oi, out := range cl.Outputs {
		o := breakopen.Output{ID: oi, Close: nw.Elems[out.Elem].IdealClose}
		for ii := range cl.Inputs {
			if cl.Reach[ii][oi] {
				o.Asserts = append(o.Asserts, nw.Elems[cl.Inputs[ii].Elem].IdealAssert)
			}
		}
		outs[oi] = o
	}
	plan, err := breakopen.Solve(nw.Clocks.Overall(), nw.EdgeTimes, outs)
	if err != nil {
		return fmt.Errorf("cluster %d: %w", cl.ID, err)
	}
	cl.Plan = plan
	return nil
}

// TotalPasses sums the analysis passes over all clusters (pre-processing
// statistic reported alongside Table 1).
func (nw *Network) TotalPasses() int {
	total := 0
	for _, cl := range nw.Clusters {
		total += cl.Plan.Passes()
	}
	return total
}

// ElemsOf returns the element indices of the named site (instance, port or
// enable endpoint).
func (nw *Network) ElemsOf(name string) []int {
	for _, s := range nw.Sites {
		if s.Name == name {
			return s.Elems
		}
	}
	return nil
}
