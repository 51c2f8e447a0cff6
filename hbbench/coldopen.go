package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// runColdOpen drives cold_open_soc: closed loop, one op outstanding, each
// op a cold open (parse, core.Load, Algorithm 1, Algorithm 2) of one of
// several distinct ~20k-cell SoC designs, rotated so consecutive opens
// never share a design. The second class, preprocess, is the part of
// the same op before Algorithm 1 (the Table-1 pre-processing column).
func runColdOpen(cfg *config, rec *recorder) error {
	lib := celllib.Default()
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers
	cells, designs := 20000, 4
	if cfg.smoke {
		cells, designs = 2000, 2
	}
	rec.load = fmt.Sprintf("closed loop, 1 op outstanding; class mix open 100%% (preprocess timed inside each open); %d designs of ~%d cells rotated", designs, cells)
	openC, preC := rec.setClasses("open", "preprocess")

	var texts []string
	for i := 0; i < cfg.setupRepeats(); i++ {
		err := rec.setup(func() error {
			var err error
			texts, err = socTexts(cells, designs, cfg.seed)
			return err
		})
		if err != nil {
			return err
		}
	}

	// want[k] holds design k's report and constraint digests from its
	// first open; every later open of it must reproduce them.
	want := make([]*openDigest, designs)
	if cfg.breakCheck {
		want[0] = &openDigest{report: "corrupted-on-purpose", cons: "corrupted-on-purpose"}
	}
	before := telemetry.Snapshot()
	traced := 0
	var checkCPU time.Duration // the digests' CPU time, left out of rec.cpu
	// open is one op: a cold open of design i % designs and its checks.
	// A cold open is a fresh process's first work, so each starts on an
	// empty heap: the garbage the previous open left is collected before
	// the next one, outside its time.
	open := func(i int) {
		defer runtime.GC()
		k := i % designs
		var o *openOutcome
		var err error
		// A traced run traces every other round of the rotation. Each
		// design is then opened both ways, and the first round, which
		// sets want, goes through core.Load: every traced open is held
		// to core.Load's digests.
		if cfg.trace && (i/designs)%2 == 1 {
			traced++
			telemetry.Enable()
			o, err = tracedOpen(fmt.Sprintf("open-%d", i), lib, texts[k], opts)
			telemetry.Disable()
		} else {
			o, err = coldOpen(lib, texts[k], opts)
		}
		if err != nil {
			rec.fail(false, "open %d (design %d): %v", i, k, err)
			return
		}
		rec.observe(openC, o.total, o.layers)
		preC.addSample(o.pre, o.layers != nil)
		if !o.rep.OK || len(o.rep.SlowElems) != 0 {
			rec.fail(true, "open %d (design %d): not timing-clean: ok=%v slow=%d", i, k, o.rep.OK, len(o.rep.SlowElems))
			return
		}
		c0 := processCPU()
		got := &openDigest{report: reportDigest(o.rep), cons: consDigest(o.cons)}
		checkCPU += processCPU() - c0
		if cfg.breakTraced && o.layers != nil {
			got.report = "corrupted-on-purpose"
		}
		if want[k] == nil {
			want[k] = got
		} else if *got != *want[k] {
			rec.fail(true, "open %d (design %d): digests differ from its first open", i, k)
		}
	}
	cpu0 := processCPU()
	end := rec.startTimed()
	for i := 0; time.Now().Before(end); i++ {
		rec.cal.hold(func() { open(i) })
	}
	rec.endTimed()
	rec.cpu = processCPU() - cpu0 - checkCPU - rec.cal.cpuUsed()
	rec.counterLayers(before, telemetry.Snapshot(), traced, 0, 0, cfg.workers)
	var err error
	rec.peakRSS, err = selfPeakRSSMB()
	return err
}

type openDigest struct{ report, cons string }

type openOutcome struct {
	pre, total time.Duration
	rep        *core.Report
	cons       *core.Constraints
	layers     map[string]float64
}

// coldOpen is the untraced op, through the public entry points.
func coldOpen(lib *celllib.Library, text string, opts core.Options) (*openOutcome, error) {
	t0 := time.Now()
	d, err := netlist.ParseString(text)
	if err != nil {
		return nil, err
	}
	an, err := core.Load(lib, d, opts)
	if err != nil {
		return nil, err
	}
	pre := time.Since(t0)
	rep, err := an.IdentifySlowPaths()
	if err != nil {
		return nil, err
	}
	cons, err := an.GenerateConstraints()
	if err != nil {
		return nil, err
	}
	return &openOutcome{pre: pre, total: time.Since(t0), rep: rep, cons: cons}, nil
}

// tracedOpen is the traced op: the front-end functions core.Load calls,
// one by one, each under its own span with its allocations counted, then
// Algorithms 1 and 2 with the span-emitting context entry points. Its
// report digest is checked against the untraced op's like any other.
func tracedOpen(id string, lib *celllib.Library, text string, opts core.Options) (*openOutcome, error) {
	p := newProbe(id, "op.open")
	t0 := time.Now()
	var (
		d    *netlist.Design
		cs   *clock.Set
		calc *delaycalc.Calc
		nw   *cluster.Network
		cd   *cluster.CompiledDesign
		rep  *core.Report
		cons *core.Constraints
	)
	steps := []struct {
		name, allocs string
		fn           func(ctx context.Context) error
	}{
		{"netlist.parse", "netlist.parse_allocs", func(context.Context) (err error) {
			d, err = netlist.ParseString(text)
			return err
		}},
		{"netlist.validate", "netlist.validate_allocs", func(context.Context) error { return d.Validate(lib) }},
		{"netlist.clockset", "netlist.validate_allocs", func(context.Context) (err error) {
			cs, err = d.ClockSet()
			return err
		}},
		{"delaycalc.new", "delaycalc.new_allocs", func(context.Context) (err error) {
			calc, err = delaycalc.New(lib, d, opts.Delay)
			return err
		}},
		{"cluster.build", "cluster.build_allocs", func(context.Context) (err error) {
			nw, err = cluster.Build(lib, d, cs, calc)
			return err
		}},
		{"cluster.compile", "cluster.compile_allocs", func(context.Context) error {
			cd = cluster.Compile(nw)
			return nil
		}},
	}
	for _, s := range steps {
		if err := p.step(s.name, s.allocs, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	an := core.LoadCompiled(cd, d, opts)
	pre := time.Since(t0)
	if err := p.step("core.alg1", "", func(ctx context.Context) (err error) {
		rep, err = an.IdentifySlowPathsCtx(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.step("core.alg2", "", func(ctx context.Context) (err error) {
		cons, err = an.GenerateConstraintsCtx(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	wall, layers := p.finish()
	return &openOutcome{pre: pre, total: time.Duration(wall), rep: rep, cons: cons, layers: layers}, nil
}

// socTexts generates n distinct SoC designs from the seed and returns
// their .hb netlist text: the only input the analyzer receives.
func socTexts(cells, n int, seed int64) ([]string, error) {
	texts := make([]string, n)
	for j := range texts {
		d, err := workload.SoCCells(cells, seed*7919+int64(j))
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := netlist.Write(&b, d); err != nil {
			return nil, err
		}
		texts[j] = b.String()
	}
	return texts, nil
}

// reportDigest hashes Algorithm 1's verdict and every slack it computed.
func reportDigest(rep *core.Report) string {
	h := newDigester()
	if rep.OK {
		h.u64(1)
	} else {
		h.u64(0)
	}
	for _, v := range [][]clock.Time{rep.Result.InSlack, rep.Result.OutSlack, rep.Result.NetSlack} {
		h.times(v)
	}
	return h.sum()
}

// consDigest hashes Algorithm 2's ready and required times.
func consDigest(c *core.Constraints) string {
	h := newDigester()
	for _, set := range [][]sta.PassDetail{c.Ready, c.Required} {
		h.u64(uint64(len(set)))
		for _, p := range set {
			h.u64(uint64(p.Cluster)<<32 | uint64(p.Pass))
			h.u64(uint64(p.Beta))
			for _, v := range [][]clock.Time{p.ReadyR, p.ReadyF, p.ReqR, p.ReqF} {
				h.times(v)
			}
		}
	}
	return h.sum()
}

// digester streams little-endian words into SHA-256 through one small
// buffer, so a check allocates next to nothing and leaves the garbage
// collector's load to the program under test.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New(), buf: make([]byte, 0, 4096)} }

func (d *digester) u64(v uint64) {
	if len(d.buf)+8 > cap(d.buf) {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

func (d *digester) times(ts []clock.Time) {
	d.u64(uint64(len(ts)))
	for _, t := range ts {
		d.u64(uint64(t))
	}
}

func (d *digester) sum() string {
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil))
}
