package main

import (
	"context"
	"runtime"
	"strings"

	"hummingbird/internal/telemetry/span"
)

// spanLayer maps a span name to the layer metric its self time (its
// duration minus its children's) counts toward. The benchmark opens the
// spans of the front-end calls, Algorithms 1 and 2, Engine.Apply and the
// client round trip itself; the others are the spans the packages
// already export. The self time of a daemon root span ("server.<op>")
// is hummingbirdd.unattributed_ms; the root of an op, and any span not
// named here, is op.unattributed_ms. Self times add up to op.wall_ms.
var spanLayer = map[string]string{
	"netlist.parse":          "netlist.parse_ms",
	"netlist.validate":       "netlist.validate_ms",
	"netlist.clockset":       "netlist.validate_ms",
	"delaycalc.new":          "delaycalc.new_ms",
	"cluster.build":          "cluster.build_ms",
	"cluster.compile":        "cluster.compile_ms",
	"sta.analyze":            "sta.analyze_ms",
	"sta.analyze_parallel":   "sta.analyze_ms",
	"sta.recompute":          "sta.recompute_ms",
	"sta.recompute_parallel": "sta.recompute_ms",
	"core.alg1":              "core.alg1_ms",
	"core.sweep":             "core.sweep_ms",
	"core.alg2":              "core.alg2_ms",
	"incremental.apply":      "incremental.unattributed_ms",
	"incr.classify":          "incr.classify_ms",
	"journal.append":         "journal.append_ms",
	"journal.fsync":          "journal.fsync_ms",
	"admission":              "hummingbirdd.admission_ms",
	"encode":                 "hummingbirdd.encode_ms",
	"client.roundtrip":       "wire_ms",
}

// spanTotal maps span names whose whole duration is also a metric.
var spanTotal = map[string]string{
	"incremental.apply": "incremental.apply_ms",
	"client.roundtrip":  "client.roundtrip_ms",
}

// selfLayers returns the metrics that partition an op's wall time.
func selfLayers() []string {
	set := map[string]bool{"hummingbirdd.unattributed_ms": true, "op.unattributed_ms": true}
	for _, l := range spanLayer {
		set[l] = true
	}
	return sortedKeys(set)
}

// layersOf turns one op's span tree into its layer metrics, adding to m
// (which may already hold allocation and GC counts).
func layersOf(root *span.Node, m map[string]float64) map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m["op.wall_ms"] += ms(root.DurNs)
	var walk func(n *span.Node, depth int)
	walk = func(n *span.Node, depth int) {
		self := n.DurNs
		for _, c := range n.Children {
			self -= c.DurNs
		}
		layer := "op.unattributed_ms"
		switch {
		case depth == 0:
		case strings.HasPrefix(n.Name, "server."):
			layer = "hummingbirdd.unattributed_ms"
			m["hummingbirdd.server_ms"] += ms(n.DurNs)
		case spanLayer[n.Name] != "":
			layer = spanLayer[n.Name]
		}
		m[layer] += ms(self)
		if t := spanTotal[n.Name]; t != "" {
			m[t] += ms(n.DurNs)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return m
}

// probe is one traced op's instrumentation: its span trace and the
// allocation and GC counts read around the public calls it makes.
type probe struct {
	tr     *span.Trace
	ctx    context.Context
	m      map[string]float64
	before runtime.MemStats
}

func newProbe(id, name string) *probe {
	p := &probe{m: map[string]float64{}}
	runtime.ReadMemStats(&p.before)
	p.tr = span.New(id, name)
	p.ctx = span.NewContext(context.Background(), p.tr)
	return p
}

// step runs fn under a span named name and, when allocs is not empty,
// adds the mallocs it made to that metric. The memory-statistics reads
// sit outside the span, so their cost is op.unattributed_ms.
func (p *probe) step(name, allocs string, fn func(ctx context.Context) error) error {
	var m0, m1 runtime.MemStats
	if allocs != "" {
		runtime.ReadMemStats(&m0)
	}
	ctx, sp := span.Start(p.ctx, name)
	err := fn(ctx)
	sp.End()
	if allocs != "" {
		runtime.ReadMemStats(&m1)
		p.m[allocs] += float64(m1.Mallocs - m0.Mallocs)
	}
	return err
}

// finish ends the trace and returns the op's wall time in ns and its
// layer metrics, GC counts included.
func (p *probe) finish() (int64, map[string]float64) {
	p.tr.Finish()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.m["gc.cycles_per_op"] += float64(after.NumGC - p.before.NumGC)
	p.m["gc.pause_ms"] += float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
	root := p.tr.Tree()
	return root.DurNs, layersOf(root, p.m)
}
