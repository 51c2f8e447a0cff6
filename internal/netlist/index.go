package netlist

import (
	"slices"
	"sort"
	"strings"

	"hummingbird/internal/celllib"
)

// Index is the dense-ID view of one level of a design: every net name is
// interned once, and the instance connections and net fan-outs the front
// end walks become int32 tables indexed by instance, pin slot and net id.
// Validation, delay calculation and elaboration all read the same index,
// so a cold open makes one string-keyed pass over the netlist.
//
// An Index is immutable once built and describes the design's structure
// (its instances, pins and connections) at the time NewIndex ran. Edits
// that keep that structure — delay adjustments and swaps to a cell with
// the same pins in the same order — keep the index valid; any other edit
// needs a new index.
type Index struct {
	// Nets lists every net the design references — clock nets, port nets
	// and instance connections — sorted by name. A net's id is its
	// position here, so ids follow sorted-name order.
	Nets []string
	// NetIdx maps each net name to its id.
	NetIdx map[string]int
	// PinStart and PinNet form the pin table: instance i owns the slots
	// PinStart[i] to PinStart[i+1]-1, one per pin of its component in the
	// component's pin order, and PinNet[s] is the id of the net on
	// slot s, or -1 when that pin is unconnected. An instance whose
	// reference resolves to no component owns no slots.
	PinStart []int32
	PinNet   []int32
	// SinkStart and Sinks list each net's sinks: the instances with an
	// input pin on net n are Sinks[SinkStart[n]:SinkStart[n+1]], in
	// instance order, an instance repeated once per such pin.
	SinkStart []int32
	Sinks     []int32
}

// pins returns the pins of the component an instance references: cell's
// pins when the reference resolved to a library cell, or else the
// PortPins of the design's module named ref. ok is false when
// the reference resolves to neither. modPins caches the pin lists made for
// modules.
func (d *Design) pins(cell *celllib.Cell, ref string, modPins map[string][]celllib.Pin) (pins []celllib.Pin, ok bool) {
	if cell != nil {
		return cell.Pins, true
	}
	m, ok := d.Modules[ref]
	if !ok {
		return nil, false
	}
	if pins, ok := modPins[ref]; ok {
		return pins, true
	}
	pins = m.PortPins()
	modPins[ref] = pins
	return pins, true
}

// PortPins returns the pins module m presents to an instance of it: one
// per port in declaration order, inputs In and outputs Out. This is the
// one module pin layout: the index's pin slots for module instances and
// the pins of the super-cell delaycalc rolls the module up into both
// follow it, so an index built against either reads the same slots.
func (m *Design) PortPins() []celllib.Pin {
	pins := make([]celllib.Pin, len(m.Ports))
	for i, p := range m.Ports {
		pins[i] = celllib.Pin{Name: p.Name, Dir: celllib.Out}
		if p.Dir == Input {
			pins[i].Dir = celllib.In
		}
	}
	return pins
}

// NewIndex interns the nets of one design level and lays out its pin and
// sink tables, resolving instance references against lib and then the
// design's modules. It never fails: instances that reference nothing own
// no slots, and connections to pins their component lacks take no slot,
// though their nets are still interned; Validate reports both.
func NewIndex(d *Design, lib *celllib.Library) *Index {
	idx := &Index{PinStart: make([]int32, len(d.Instances)+1)}
	conns := 0
	for i := range d.Instances {
		conns += len(d.Instances[i].Conns)
	}
	// Nets are interned under first-seen ids, then renumbered into sorted
	// order once every name is known.
	names := make([]string, 0, len(d.Instances)+len(d.Ports)+len(d.Clocks))
	ids := make(map[string]int, cap(names))
	intern := func(name string) int32 {
		if id, ok := ids[name]; ok {
			return int32(id)
		}
		ids[name] = len(names)
		names = append(names, name)
		return int32(len(names) - 1)
	}
	for _, c := range d.Clocks {
		intern(c.Name)
	}
	for _, p := range d.Ports {
		intern(p.Name)
	}
	idx.PinNet = make([]int32, 0, conns)
	inSlots := make([]int32, 0, conns) // connected input-pin slots, ascending
	modPins := map[string][]celllib.Pin{}
	for i := range d.Instances {
		inst := &d.Instances[i]
		pins, _ := d.pins(lib.Cell(inst.Ref), inst.Ref, modPins)
		connected := 0
		for _, p := range pins {
			net := int32(-1)
			if name, ok := inst.Conns[p.Name]; ok {
				net = intern(name)
				connected++
				if p.Dir == celllib.In {
					inSlots = append(inSlots, int32(len(idx.PinNet)))
				}
			}
			idx.PinNet = append(idx.PinNet, net)
		}
		idx.PinStart[i+1] = int32(len(idx.PinNet))
		if connected < len(inst.Conns) {
			for _, name := range inst.Conns {
				intern(name)
			}
		}
	}

	perm := make([]int32, len(names))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int32, len(names))
	idx.Nets = make([]string, len(names))
	for id, first := range perm {
		rank[first] = int32(id)
		idx.Nets[id] = names[first]
		ids[names[first]] = id
	}
	idx.NetIdx = ids
	for s, net := range idx.PinNet {
		if net >= 0 {
			idx.PinNet[s] = rank[net]
		}
	}

	idx.SinkStart = make([]int32, len(idx.Nets)+1)
	for _, s := range inSlots {
		idx.SinkStart[idx.PinNet[s]+1]++
	}
	for n := range idx.Nets {
		idx.SinkStart[n+1] += idx.SinkStart[n]
	}
	idx.Sinks = make([]int32, len(inSlots))
	fill := slices.Clone(idx.SinkStart[:len(idx.Nets)])
	inst := int32(0)
	for _, s := range inSlots {
		for idx.PinStart[inst+1] <= s {
			inst++
		}
		net := idx.PinNet[s]
		idx.Sinks[fill[net]] = inst
		fill[net]++
	}
	return idx
}

// Slots returns the net ids on instance i's pin slots.
func (idx *Index) Slots(i int) []int32 { return idx.PinNet[idx.PinStart[i]:idx.PinStart[i+1]] }

// Stats is Design.Stats for the design idx indexes, taking the net count
// from the index instead of collecting the net names again.
func (idx *Index) Stats(d *Design, lib *celllib.Library) Stats { return d.stats(lib, len(idx.Nets)) }

// InstanceOf returns the instance owning pin slot s.
func (idx *Index) InstanceOf(s int32) int {
	return sort.Search(len(idx.PinStart)-1, func(i int) bool { return idx.PinStart[i+1] > s })
}

// UnknownPin returns the first, in name order, of inst's connections to a
// pin not among pins. Callers ask only after counting fewer connected
// slots than connections, so some such pin exists.
func UnknownPin(inst *Instance, pins []celllib.Pin) string {
	unknown, found := "", false
	for pin := range inst.Conns {
		if (!found || pin < unknown) && !slices.ContainsFunc(pins, func(p celllib.Pin) bool { return p.Name == pin }) {
			unknown, found = pin, true
		}
	}
	return unknown
}
