// Package netlist models designs the way the paper's synthesis environment
// presents them (§1): networks of combinational logic and synchronising
// elements, optionally hierarchical ("a 'hierarchical' description ... in
// which the combinational logic is contained in a single module", §8's SM1H
// benchmark), together with the clock generators and the timing references
// of the primary ports.
//
// A Design owns clock declarations, ports, instances and submodule
// definitions. Each declared clock drives a net bearing the clock's name
// (the clock generator output terminal of §4). Primary ports connect to
// nets bearing the port's name.
package netlist

import (
	"fmt"
	"sort"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
)

// PortDir distinguishes primary inputs from primary outputs.
type PortDir uint8

const (
	// Input is a primary input port.
	Input PortDir = iota
	// Output is a primary output port.
	Output
)

// String returns "input" or "output".
func (d PortDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Port is a primary input or output. Hitchcock-style "assorted assertion
// times at the inputs and closure times at the outputs" [6] are expressed by
// referencing a clock edge: an input is asserted at (edge time + Offset);
// an output closes at (edge time + Offset). Ports of submodules carry no
// timing reference (RefClock empty) — their timing comes from the
// instantiating context.
type Port struct {
	Name     string
	Dir      PortDir
	RefClock string
	RefEdge  clock.EdgeKind
	Offset   clock.Time
}

// Instance is one placed component: a library cell or a submodule.
type Instance struct {
	Name string
	// Ref names either a library cell or a module defined in the design.
	Ref string
	// Conns maps the referenced component's pin (or module port) names to
	// net names.
	Conns map[string]string
}

// Design is a netlist, possibly with submodule definitions.
type Design struct {
	Name      string
	Clocks    []clock.Signal
	Ports     []Port
	Instances []Instance
	// Modules holds submodule definitions by name. Submodules must be
	// purely combinational (the paper's hierarchy use case) and may not
	// define clocks or nest further modules.
	Modules map[string]*Design
}

// New returns an empty design with the given name.
func New(name string) *Design {
	return &Design{Name: name, Modules: map[string]*Design{}}
}

// AddClock declares a clock generator; its output net bears the clock name.
func (d *Design) AddClock(s clock.Signal) { d.Clocks = append(d.Clocks, s) }

// AddPort declares a primary port; its net bears the port name.
func (d *Design) AddPort(p Port) { d.Ports = append(d.Ports, p) }

// AddInstance places a component.
func (d *Design) AddInstance(inst Instance) { d.Instances = append(d.Instances, inst) }

// AddModule registers a submodule definition.
func (d *Design) AddModule(m *Design) {
	if d.Modules == nil {
		d.Modules = map[string]*Design{}
	}
	d.Modules[m.Name] = m
}

// Port returns the named port, or nil.
func (d *Design) Port(name string) *Port {
	for i := range d.Ports {
		if d.Ports[i].Name == name {
			return &d.Ports[i]
		}
	}
	return nil
}

// ClockNames returns the declared clock names in declaration order.
func (d *Design) ClockNames() []string {
	names := make([]string, len(d.Clocks))
	for i, c := range d.Clocks {
		names[i] = c.Name
	}
	return names
}

// ClockSet builds the clock.Set of the declared clocks.
func (d *Design) ClockSet() (*clock.Set, error) {
	if len(d.Clocks) == 0 {
		return nil, fmt.Errorf("design %s: no clocks declared", d.Name)
	}
	return clock.NewSet(d.Clocks...)
}

// NetNames returns every net name referenced by the design — port nets,
// clock nets and instance connections — sorted.
func (d *Design) NetNames() []string {
	seen := map[string]bool{}
	for _, c := range d.Clocks {
		seen[c.Name] = true
	}
	for _, p := range d.Ports {
		seen[p.Name] = true
	}
	for _, inst := range d.Instances {
		for _, net := range inst.Conns {
			seen[net] = true
		}
	}
	nets := make([]string, 0, len(seen))
	for n := range seen {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	return nets
}

// Stats summarises a design for Table-1-style reporting.
type Stats struct {
	Cells   int // leaf cell instances after hypothetical flattening
	Modules int // module instances at top level
	Nets    int // nets at top level
	Latches int // synchronising elements (leaf, flattened count)
}

// Stats computes design statistics against the given library. Module
// instances are counted through their definitions even when lib also
// holds the module's rolled-up super-cell.
func (d *Design) Stats(lib *celllib.Library) Stats { return d.stats(lib, len(d.NetNames())) }

func (d *Design) stats(lib *celllib.Library, nets int) Stats {
	s := Stats{Nets: nets}
	var count func(des *Design, mult int)
	count = func(des *Design, mult int) {
		for _, inst := range des.Instances {
			if m, ok := d.Modules[inst.Ref]; ok {
				if des == d {
					s.Modules++
				}
				count(m, mult)
				continue
			}
			if c := lib.Cell(inst.Ref); c != nil {
				s.Cells += mult
				if c.IsSync() {
					s.Latches += mult
				}
			}
		}
	}
	count(d, 1)
	return s
}

// Validate checks design consistency against the library:
//   - every instance references a known cell or module,
//   - every connection names a pin/port of the referenced component,
//   - every input pin is connected and every net has at most one driver,
//   - clock/port/net name collisions are rejected,
//   - submodules are purely combinational and non-nested,
//   - port timing references name declared clocks.
//
// Errors are deterministic: the first offending instance in declaration
// order, and within it the first offending pin in pin order, connections
// to unknown pins in name order.
func (d *Design) Validate(lib *celllib.Library) error {
	return d.ValidateIndex(lib, NewIndex(d, lib))
}

// ValidateIndex is Validate over idx, which must be NewIndex(d, lib) or
// an index built equally: callers that go on to use the index build it
// once.
func (d *Design) ValidateIndex(lib *celllib.Library, idx *Index) error {
	if d.Name == "" {
		return fmt.Errorf("netlist: design with empty name")
	}
	clockNames := map[string]bool{}
	for _, c := range d.Clocks {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("design %s: %w", d.Name, err)
		}
		if clockNames[c.Name] {
			return fmt.Errorf("design %s: duplicate clock %q", d.Name, c.Name)
		}
		clockNames[c.Name] = true
	}
	portNames := map[string]bool{}
	for _, p := range d.Ports {
		if p.Name == "" {
			return fmt.Errorf("design %s: port with empty name", d.Name)
		}
		if portNames[p.Name] {
			return fmt.Errorf("design %s: duplicate port %q", d.Name, p.Name)
		}
		if clockNames[p.Name] {
			return fmt.Errorf("design %s: port %q collides with clock net", d.Name, p.Name)
		}
		portNames[p.Name] = true
		if p.RefClock != "" && !clockNames[p.RefClock] {
			return fmt.Errorf("design %s: port %q references unknown clock %q", d.Name, p.Name, p.RefClock)
		}
	}
	modNames := make([]string, 0, len(d.Modules))
	for name := range d.Modules {
		modNames = append(modNames, name)
	}
	sort.Strings(modNames)
	for _, name := range modNames {
		m := d.Modules[name]
		if name != m.Name {
			return fmt.Errorf("design %s: module map key %q != module name %q", d.Name, name, m.Name)
		}
		if len(m.Clocks) != 0 {
			return fmt.Errorf("design %s: module %s declares clocks (modules must be combinational)", d.Name, name)
		}
		if len(m.Modules) != 0 {
			return fmt.Errorf("design %s: module %s nests modules", d.Name, name)
		}
		for _, inst := range m.Instances {
			c := lib.Cell(inst.Ref)
			if c == nil {
				return fmt.Errorf("design %s: module %s instance %s references unknown cell %q", d.Name, name, inst.Name, inst.Ref)
			}
			if c.IsSync() {
				return fmt.Errorf("design %s: module %s contains synchronising element %s (%s)", d.Name, name, inst.Name, inst.Ref)
			}
		}
		if err := m.checkConnectivity(lib, NewIndex(m, lib)); err != nil {
			return fmt.Errorf("design %s: module %s: %w", d.Name, name, err)
		}
	}
	return d.checkConnectivity(lib, idx)
}

// Driver codes of checkConnectivity's per-net driver table. An instance
// output is recorded by its pin slot, which is never negative.
const (
	noDriver    = -1
	clockDriver = -2
	inputDriver = -3
)

// checkConnectivity verifies instance references, connection completeness
// and driver rules for one level of the hierarchy. Nets normally have at
// most one driver; the exception is a *tristate bus*: a net whose drivers
// are all clocked tristate drivers ("Clocked tristate drivers are modeled
// in the same way as transparent latches", §5) may have any number of
// them, on the assumption that the enabling clock phases are disjoint.
// Clock nets are driven by their clock generators; modules declare none.
func (d *Design) checkConnectivity(lib *celllib.Library, idx *Index) error {
	driver := make([]int32, len(idx.Nets)) // latest driver of each net
	for n := range driver {
		driver[n] = noDriver
	}
	triOnly := make([]bool, len(idx.Nets)) // every instance driver so far is tristate
	for _, c := range d.Clocks {
		driver[idx.NetIdx[c.Name]] = clockDriver
	}
	for _, p := range d.Ports {
		if p.Dir == Input {
			driver[idx.NetIdx[p.Name]] = inputDriver
		}
	}
	modPins := map[string][]celllib.Pin{}
	pinName := func(slot int32) (*Instance, string) {
		i := idx.InstanceOf(slot)
		inst := &d.Instances[i]
		pins, _ := d.pins(lib.Cell(inst.Ref), inst.Ref, modPins)
		return inst, pins[slot-idx.PinStart[i]].Name
	}
	describe := func(drv int32, net int32) string {
		switch drv {
		case clockDriver:
			return "clock generator " + idx.Nets[net]
		case inputDriver:
			return "primary input " + idx.Nets[net]
		}
		inst, pin := pinName(drv)
		return fmt.Sprintf("instance %s pin %s", inst.Name, pin)
	}

	instNames := make(map[string]struct{}, len(d.Instances))
	var undriven []int32 // input slots read before their net had a driver
	for i := range d.Instances {
		inst := &d.Instances[i]
		if inst.Name == "" {
			return fmt.Errorf("instance with empty name (ref %q)", inst.Ref)
		}
		if _, dup := instNames[inst.Name]; dup {
			return fmt.Errorf("duplicate instance %q", inst.Name)
		}
		instNames[inst.Name] = struct{}{}

		cell := lib.Cell(inst.Ref)
		pins, ok := d.pins(cell, inst.Ref, modPins)
		if !ok {
			return fmt.Errorf("instance %s references unknown cell/module %q", inst.Name, inst.Ref)
		}
		start, slots := idx.PinStart[i], idx.Slots(i)
		connected := 0
		for k, net := range slots {
			if net < 0 {
				continue
			}
			connected++
			if idx.Nets[net] == "" {
				return fmt.Errorf("instance %s (%s): pin %q connected to empty net name", inst.Name, inst.Ref, pins[k].Name)
			}
		}
		if connected < len(inst.Conns) {
			return fmt.Errorf("instance %s (%s): unknown pin %q", inst.Name, inst.Ref, UnknownPin(inst, pins))
		}
		for k, net := range slots {
			if net < 0 && pins[k].Dir == celllib.In {
				return fmt.Errorf("instance %s (%s): input pin %q unconnected", inst.Name, inst.Ref, pins[k].Name)
			}
		}
		isTri := cell != nil && cell.Kind == celllib.Tristate
		for k, net := range slots {
			switch {
			case net < 0: // dangling outputs are permitted
			case pins[k].Dir == celllib.In:
				if driver[net] == noDriver {
					undriven = append(undriven, start+int32(k))
				}
			case driver[net] == noDriver:
				driver[net], triOnly[net] = start+int32(k), isTri
			case isTri && triOnly[net]:
				driver[net] = start + int32(k)
			default:
				return fmt.Errorf("net %q driven by both %s and instance %s pin %s", idx.Nets[net], describe(driver[net], net), inst.Name, pins[k].Name)
			}
		}
	}
	// Every net that is consumed must have a driver.
	for _, s := range undriven {
		if net := idx.PinNet[s]; driver[net] == noDriver {
			inst, pin := pinName(s)
			return fmt.Errorf("instance %s pin %s: net %q has no driver", inst.Name, pin, idx.Nets[net])
		}
	}
	for _, p := range d.Ports {
		if p.Dir == Output && driver[idx.NetIdx[p.Name]] == noDriver {
			return fmt.Errorf("primary output %q has no driver", p.Name)
		}
	}
	return nil
}

// Flatten expands every module instance into its leaf cells, prefixing
// inner instance and net names with "<instname>/". The result has no module
// instances. Flatten assumes Validate passed.
func (d *Design) Flatten(lib *celllib.Library) *Design {
	flat := New(d.Name)
	flat.Clocks = append(flat.Clocks, d.Clocks...)
	flat.Ports = append(flat.Ports, d.Ports...)
	for _, inst := range d.Instances {
		if lib.Cell(inst.Ref) != nil {
			flat.AddInstance(Instance{Name: inst.Name, Ref: inst.Ref, Conns: copyConns(inst.Conns)})
			continue
		}
		m := d.Modules[inst.Ref]
		prefix := inst.Name + "/"
		// Map module port name -> outer net.
		portNet := map[string]string{}
		for _, p := range m.Ports {
			if net, ok := inst.Conns[p.Name]; ok {
				portNet[p.Name] = net
			} else {
				portNet[p.Name] = prefix + p.Name // dangling module port
			}
		}
		for _, mi := range m.Instances {
			conns := make(map[string]string, len(mi.Conns))
			for pin, net := range mi.Conns {
				if outer, ok := portNet[net]; ok {
					conns[pin] = outer
				} else {
					conns[pin] = prefix + net
				}
			}
			flat.AddInstance(Instance{Name: prefix + mi.Name, Ref: mi.Ref, Conns: conns})
		}
	}
	return flat
}

func copyConns(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// InstancesSortedByName returns the instances sorted by name; reporting
// helper for deterministic output.
func (d *Design) InstancesSortedByName() []Instance {
	out := append([]Instance(nil), d.Instances...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
