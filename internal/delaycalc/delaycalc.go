// Package delaycalc performs component propagation-delay estimation (§1):
// it evaluates the library's empirical load-dependent delay expressions
// against the actual connected loads of a design, and rolls hierarchical
// combinational modules up into single super-cells whose pin-to-pin delays
// are the combined internal path delays ("For combinational logic modules
// the delays have been combined to generate estimates of the module
// propagation delays", §8).
//
// The paper separates component delay estimation from system timing
// analysis so that different estimation methods can be combined; this
// package is the single place the rest of the analyzer obtains component
// delays from, so swapping the estimation model never touches the analysis
// algorithms.
package delaycalc

import (
	"fmt"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/graph"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
)

// mEvals counts delay-expression evaluations (one per arc per call),
// the unit the paper's estimation cost scales with. tRefreshLoads times
// the incremental engine's post-resize load recomputations.
var (
	mEvals        = telemetry.NewCounter("delaycalc.evaluations")
	tRefreshLoads = telemetry.NewTimer("delaycalc.refresh_loads")
)

// Delays is one timing arc's evaluated propagation delays at its actual
// load: the worst (max) and best (min) delay for each output transition
// direction.
type Delays struct {
	MaxRise, MaxFall clock.Time
	MinRise, MinFall clock.Time
}

// Max returns the worst delay over both transitions (used where rise/fall
// are not tracked separately).
func (d Delays) Max() clock.Time {
	if d.MaxRise > d.MaxFall {
		return d.MaxRise
	}
	return d.MaxFall
}

// Min returns the best delay over both transitions.
func (d Delays) Min() clock.Time {
	if d.MinRise < d.MinFall {
		return d.MinRise
	}
	return d.MinFall
}

// Options tunes the estimation model.
type Options struct {
	// WireCapBase is added to every driven net's load (routing stub).
	WireCapBase celllib.Cap
	// WireCapPerFanout is added per sink pin on the net.
	WireCapPerFanout celllib.Cap
	// DefaultPortLoad is the load assumed on nets that leave the design
	// (primary outputs, module boundary pins during roll-up).
	DefaultPortLoad celllib.Cap
}

// DefaultOptions returns the wire-load model used by the benchmarks.
func DefaultOptions() Options {
	return Options{WireCapBase: 2, WireCapPerFanout: 3, DefaultPortLoad: 10}
}

// Calc evaluates arc delays for one design. The design must be *resolved*:
// every instance reference must name a cell in the (possibly extended)
// library — hierarchical designs are first rolled up with RollUpModules or
// flattened with netlist.Flatten.
type Calc struct {
	lib    *celllib.Library
	design *netlist.Design
	opts   Options
	idx    *netlist.Index
	loads  []celllib.Cap // by net id
	// adjust holds per-instance additive delay adjustments (interactive
	// mode, §8: "Adjustments may also be made to component delays").
	adjust map[string]clock.Time
}

// New builds a calculator, computing every net's capacitive load.
func New(lib *celllib.Library, design *netlist.Design, opts Options) (*Calc, error) {
	return NewIndexed(lib, design, netlist.NewIndex(design, lib), opts)
}

// NewIndexed is New over a prebuilt net index of the design (see
// netlist.NewIndex), which the calculator keeps and hands on through
// Index.
func NewIndexed(lib *celllib.Library, design *netlist.Design, idx *netlist.Index, opts Options) (*Calc, error) {
	c := &Calc{lib: lib, design: design, opts: opts, idx: idx,
		loads:  make([]celllib.Cap, len(idx.Nets)),
		adjust: make(map[string]clock.Time)}
	sinks := make([]int32, len(idx.Nets))
	for i := range design.Instances {
		inst := &design.Instances[i]
		cell := lib.Cell(inst.Ref)
		if cell == nil {
			return nil, fmt.Errorf("delaycalc: instance %s references unresolved component %q", inst.Name, inst.Ref)
		}
		connected := 0
		for k, net := range idx.Slots(i) {
			if net < 0 {
				continue
			}
			connected++
			if p := &cell.Pins[k]; p.Dir == celllib.In {
				sinks[net]++
				c.loads[net] += p.C
			}
		}
		if connected < len(inst.Conns) {
			return nil, fmt.Errorf("delaycalc: instance %s (%s): unknown pin %q", inst.Name, inst.Ref, netlist.UnknownPin(inst, cell.Pins))
		}
	}
	for _, p := range design.Ports {
		if p.Dir == netlist.Output {
			net := idx.NetIdx[p.Name]
			sinks[net]++
			c.loads[net] += opts.DefaultPortLoad
		}
	}
	for net, n := range sinks {
		if n > 0 {
			c.loads[net] += opts.WireCapBase + celllib.Cap(n)*opts.WireCapPerFanout
		}
	}
	return c, nil
}

// Index returns the net index the calculator was built over; its net ids
// are the ones ArcDelaysAt takes.
func (c *Calc) Index() *netlist.Index { return c.idx }

// RefreshLoads recomputes the capacitive loads of the named nets from the
// design's current instances. The incremental engine calls this after a
// cell resize: the resized instance's input pin capacitances change the
// loads — and hence the arc delays — of the nets driving it. Only the
// nets' sink instances are visited, each through its current cell.
func (c *Calc) RefreshLoads(nets []string) {
	if len(nets) == 0 {
		return
	}
	if telemetry.Enabled() {
		defer func(t0 time.Time) { tRefreshLoads.Observe(time.Since(t0)) }(time.Now())
	}
	for _, name := range nets {
		net, ok := c.idx.NetIdx[name]
		if !ok {
			continue
		}
		var load celllib.Cap
		n := 0
		prev := int32(-1)
		for _, i := range c.idx.Sinks[c.idx.SinkStart[net]:c.idx.SinkStart[net+1]] {
			if i == prev {
				continue // one visit covers all of the instance's pins on the net
			}
			prev = i
			inst := &c.design.Instances[i]
			cell := c.lib.Cell(inst.Ref)
			if cell == nil {
				continue
			}
			for pin, to := range inst.Conns {
				if to != name {
					continue
				}
				if p := cell.Pin(pin); p != nil && p.Dir == celllib.In {
					n++
					load += p.C
				}
			}
		}
		for _, p := range c.design.Ports {
			if p.Dir == netlist.Output && p.Name == name {
				n++
				load += c.opts.DefaultPortLoad
			}
		}
		if n > 0 {
			load += c.opts.WireCapBase + celllib.Cap(n)*c.opts.WireCapPerFanout
		}
		c.loads[net] = load
	}
}

// NetLoad returns the total capacitive load on the named net.
func (c *Calc) NetLoad(net string) celllib.Cap {
	if id, ok := c.idx.NetIdx[net]; ok {
		return c.loads[id]
	}
	return 0
}

// Adjust adds delta picoseconds to every max/min arc delay of the named
// instance (negative deltas speed the instance up; min delays are floored
// at zero). Supports the interactive what-if mode of §8.
func (c *Calc) Adjust(instName string, delta clock.Time) {
	c.adjust[instName] += delta
}

// Adjustment returns the current additive adjustment of an instance.
func (c *Calc) Adjustment(instName string) clock.Time { return c.adjust[instName] }

// ArcDelays evaluates one arc of one instance at its connected load.
func (c *Calc) ArcDelays(inst *netlist.Instance, arc *celllib.Arc) Delays {
	load := c.opts.DefaultPortLoad
	if net, ok := inst.Conns[arc.To]; ok {
		load = c.NetLoad(net)
	}
	return c.eval(inst, arc, load)
}

// ArcDelaysAt is ArcDelays for an arc whose driven net is known by id
// (see Index), or -1 when the arc's output pin is unconnected.
func (c *Calc) ArcDelaysAt(inst *netlist.Instance, arc *celllib.Arc, to int) Delays {
	load := c.opts.DefaultPortLoad
	if to >= 0 {
		load = c.loads[to]
	}
	return c.eval(inst, arc, load)
}

func (c *Calc) eval(inst *netlist.Instance, arc *celllib.Arc, load celllib.Cap) Delays {
	mEvals.Inc()
	adj := c.adjust[inst.Name]
	d := Delays{
		MaxRise: arc.Delay.MaxRise.Eval(load) + adj,
		MaxFall: arc.Delay.MaxFall.Eval(load) + adj,
		MinRise: arc.Delay.MinRise.Eval(load) + adj,
		MinFall: arc.Delay.MinFall.Eval(load) + adj,
	}
	if d.MinRise < 0 {
		d.MinRise = 0
	}
	if d.MinFall < 0 {
		d.MinFall = 0
	}
	if d.MaxRise < d.MinRise {
		d.MaxRise = d.MinRise
	}
	if d.MaxFall < d.MinFall {
		d.MaxFall = d.MinFall
	}
	return d
}

// RollUpModules converts every module of a hierarchical design into a
// synthetic combinational super-cell whose input→output arcs carry the
// module's internal worst (and best) path delays, and returns an extended
// library containing the originals plus the super-cells. Instance
// references are left untouched: a reference to module "FOO" resolves to
// the super-cell named "FOO" in the returned library.
func RollUpModules(lib *celllib.Library, design *netlist.Design, opts Options) (*celllib.Library, error) {
	ext := celllib.NewLibrary(lib.Name + "+modules")
	for _, name := range lib.Names() {
		if err := ext.Add(lib.Cell(name)); err != nil {
			return nil, err
		}
	}
	for name, m := range design.Modules {
		cell, err := rollUp(lib, m, opts)
		if err != nil {
			return nil, fmt.Errorf("delaycalc: module %s: %w", name, err)
		}
		if err := ext.Add(cell); err != nil {
			return nil, fmt.Errorf("delaycalc: module %s: %w", name, err)
		}
	}
	return ext, nil
}

// rollUp computes the super-cell for one combinational module. Internal
// delays are evaluated at the module's internal loads; boundary outputs see
// DefaultPortLoad. The super-cell's arcs are constant (zero-slope): the
// paper's module delay estimates are likewise single combined numbers.
// Mixed inversions inside a module make the arc sense NonUnate (safe).
func rollUp(lib *celllib.Library, m *netlist.Design, opts Options) (*celllib.Cell, error) {
	calc, err := New(lib, m, opts)
	if err != nil {
		return nil, err
	}
	// Net-level DAG: node per net; arcs per instance input→output.
	nets, id := calc.idx.Nets, calc.idx.NetIdx
	g := graph.New(len(nets))
	type edge struct {
		from, to int
		d        Delays
		sense    celllib.Sense
	}
	var edges []edge
	for i := range m.Instances {
		inst := &m.Instances[i]
		cell := lib.Cell(inst.Ref)
		for ai := range cell.Arcs {
			arc := &cell.Arcs[ai]
			fromNet, ok1 := inst.Conns[arc.From]
			toNet, ok2 := inst.Conns[arc.To]
			if !ok1 || !ok2 {
				continue
			}
			if err := g.AddEdge(id[fromNet], id[toNet]); err != nil {
				return nil, fmt.Errorf("module %s: arc of instance %s: %w", m.Name, inst.Name, err)
			}
			edges = append(edges, edge{id[fromNet], id[toNet], calc.ArcDelays(inst, arc), arc.Sense})
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		cyc := g.FindCycle()
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = nets[v]
		}
		return nil, fmt.Errorf("combinational cycle through nets %v", names)
	}
	adj := make(map[int][]edge)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}

	const unset = clock.Time(-1)
	pins := m.PortPins()
	for k := range pins {
		if pins[k].Dir == celllib.In {
			pins[k].C = opts.DefaultPortLoad
		}
	}
	var arcs []celllib.Arc
	for _, in := range m.Ports {
		if in.Dir != netlist.Input {
			continue
		}
		// Longest/shortest path DP from this input, rise/fall tracked via
		// Delays pairs; senses are collapsed to NonUnate so rise and fall
		// both take the max across senses (conservative).
		maxd := make([]clock.Time, len(nets))
		mind := make([]clock.Time, len(nets))
		for i := range maxd {
			maxd[i], mind[i] = unset, unset
		}
		src := id[in.Name]
		maxd[src], mind[src] = 0, 0
		for _, u := range order {
			if maxd[u] == unset {
				continue
			}
			for _, e := range adj[u] {
				if t := maxd[u] + e.d.Max(); maxd[e.to] == unset || t > maxd[e.to] {
					maxd[e.to] = t
				}
				if t := mind[u] + e.d.Min(); mind[e.to] == unset || t < mind[e.to] {
					mind[e.to] = t
				}
			}
		}
		for _, out := range m.Ports {
			if out.Dir != netlist.Output {
				continue
			}
			dst := id[out.Name]
			if maxd[dst] == unset {
				continue // no path input→output
			}
			arcs = append(arcs, celllib.Arc{
				From: in.Name, To: out.Name, Sense: celllib.NonUnate,
				Delay: celllib.ArcDelay{
					MaxRise: celllib.Linear{Intrinsic: maxd[dst]},
					MaxFall: celllib.Linear{Intrinsic: maxd[dst]},
					MinRise: celllib.Linear{Intrinsic: mind[dst]},
					MinFall: celllib.Linear{Intrinsic: mind[dst]},
				},
			})
		}
	}
	var area int64
	for _, inst := range m.Instances {
		area += lib.Cell(inst.Ref).Area
	}
	return &celllib.Cell{
		Name: m.Name, Kind: celllib.Comb,
		Function: fmt.Sprintf("module %s (%d cells)", m.Name, len(m.Instances)),
		Area:     area, Drive: 1, Pins: pins, Arcs: arcs,
	}, nil
}
