package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// batchSize is the instance count of one resynthesis batch.
const batchSize = 128

// runWhatIf drives whatif_soc: one in-process incremental.Engine on a
// ~100k-cell SoC opened at set-up, closed loop, ops in ±δ pairs whose
// class alternates pair by pair: a one-instance edit pair, then a
// 128-instance batch pair. After every pair the design is back in its
// set-up state, so its worst slack and slow-element count must equal
// the set-up values.
func runWhatIf(cfg *config, rec *recorder) error {
	lib := celllib.Default()
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers
	cells := 100000
	if cfg.smoke {
		cells = 10000
	}
	rec.load = fmt.Sprintf("closed loop, 1 op outstanding; class mix edit 50%% / batch 50%% in ±δ pairs; one ~%d-cell engine", cells)
	editC, batchC := rec.setClasses("edit", "batch")

	var s *whatIfState
	for i := 0; i < cfg.setupRepeats(); i++ {
		// Drop the previous set-up's engine before building the next, so
		// peak_rss_mb reflects one engine, not several.
		s = nil
		runtime.GC()
		debug.FreeOSMemory()
		err := rec.setup(func() error {
			var err error
			s, err = openWhatIf(lib, cells, cfg.seed, opts)
			return err
		})
		if err != nil {
			return err
		}
	}
	if len(s.targets) < batchSize {
		return fmt.Errorf("only %d delay-local instances, need %d", len(s.targets), batchSize)
	}
	if cfg.breakCheck {
		s.worst++
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(s.targets))
	stride := len(s.targets) / batchSize
	before := telemetry.Snapshot()
	traced := 0
	// pair is one ±δ pair of ops, of class edit when k is even, batch
	// when it is odd.
	pair := func(k int) {
		c, insts := editC, []string{s.targets[order[(k/2)%len(order)]]}
		if k%2 == 1 {
			c, insts = batchC, make([]string, batchSize)
			off := rng.Intn(stride)
			for j := range insts {
				insts[j] = s.targets[off+j*stride]
			}
		}
		delta := clock.Time(20 + rng.Intn(181)) // 20–200 ps
		tracePair := cfg.trace && (k/2)%2 == 1
		for _, sign := range []clock.Time{1, -1} {
			edits := make([]incremental.Edit, len(insts))
			for j, inst := range insts {
				edits[j] = incremental.Edit{Op: incremental.Adjust, Inst: inst, Delta: sign * delta}
			}
			var out *incremental.Outcome
			var err error
			if tracePair {
				traced++
				telemetry.Enable()
				p := newProbe(fmt.Sprintf("%s-%d-%d", c.name, k, sign), "op."+c.name)
				err = p.step("incremental.apply", "incremental.apply_allocs", func(ctx context.Context) (err error) {
					out, err = s.eng.ApplyContext(ctx, edits...)
					return err
				})
				wall, layers := p.finish()
				telemetry.Disable()
				if err == nil {
					rec.observe(c, time.Duration(wall), layers)
				}
			} else {
				t0 := time.Now()
				out, err = s.eng.Apply(edits...)
				if err == nil {
					rec.observe(c, time.Since(t0), nil)
				}
			}
			switch {
			case err != nil:
				rec.fail(false, "%s pair %d: apply: %v", c.name, k, err)
			case !out.Incremental:
				rec.fail(true, "%s pair %d: fell back to a full rebuild (%s)", c.name, k, out.FallbackReason)
			case sign < 0 && (out.Report.WorstSlack() != s.worst || len(out.Report.SlowElems) != s.slow):
				rec.fail(true, "%s pair %d: worst slack %v, %d slow after the pair; set-up had %v, %d",
					c.name, k, out.Report.WorstSlack(), len(out.Report.SlowElems), s.worst, s.slow)
			}
		}
	}
	cpu0 := processCPU()
	end := rec.startTimed()
	for k := 0; time.Now().Before(end); k++ {
		rec.cal.hold(func() { pair(k) })
	}
	rec.endTimed()
	rec.cpu = processCPU() - cpu0 - rec.cal.cpuUsed()
	rec.counterLayers(before, telemetry.Snapshot(), traced, traced, 0, cfg.workers)
	var err error
	if rec.peakRSS, err = selfPeakRSSMB(); err != nil {
		return err
	}
	if msg := s.checkFromScratch(lib); msg != "" {
		rec.fail(true, "final state: %s", msg)
	}
	return nil
}

// whatIfState is the set-up state of whatif_soc.
type whatIfState struct {
	eng     *incremental.Engine
	targets []string // delay-local combinational instances, design order
	worst   clock.Time
	slow    int
}

// openWhatIf generates the SoC from the seed, hands the engine only its
// netlist text, and picks the edit targets.
func openWhatIf(lib *celllib.Library, cells int, seed int64, opts core.Options) (*whatIfState, error) {
	d, err := workload.SoCCells(cells, seed)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := netlist.Write(&b, d); err != nil {
		return nil, err
	}
	parsed, err := netlist.ParseString(b.String())
	if err != nil {
		return nil, err
	}
	eng, err := incremental.Open(lib, parsed, opts)
	if err != nil {
		return nil, err
	}
	rep := eng.Report()
	return &whatIfState{eng: eng, targets: delayLocal(eng), worst: rep.WorstSlack(), slow: len(rep.SlowElems)}, nil
}

// delayLocal lists the instances whose delay edits the engine keeps
// incremental: combinational cells with no connection into a clock cone,
// by the public CompiledDesign.NetIdx / IsControlNet test.
func delayLocal(eng *incremental.Engine) []string {
	cd := eng.CompiledDesign()
	lib := eng.Analyzer().Lib
	var out []string
next:
	for _, inst := range eng.Design().Instances {
		cell := lib.Cell(inst.Ref)
		if cell == nil || cell.IsSync() {
			continue
		}
		for _, net := range inst.Conns {
			if id, ok := cd.NetIdx[net]; ok && cd.IsControlNet(id) {
				continue next
			}
		}
		out = append(out, inst.Name)
	}
	return out
}

// checkFromScratch compares the engine's per-net slacks with a
// from-scratch core.Load of its current design and adjustments; it
// returns "" when they agree.
func (s *whatIfState) checkFromScratch(lib *celllib.Library) string {
	an, err := core.Load(lib, s.eng.Design(), s.eng.Options())
	if err != nil {
		return fmt.Sprintf("reload: %v", err)
	}
	rep, err := an.IdentifySlowPaths()
	if err != nil {
		return fmt.Sprintf("reload analysis: %v", err)
	}
	want := map[string]clock.Time{}
	for i, name := range an.CD.Nets {
		want[name] = rep.Result.NetSlack[i]
	}
	got := s.eng.Report().Result.NetSlack
	nets := s.eng.CompiledDesign().Nets
	if len(nets) != len(want) {
		return fmt.Sprintf("engine has %d nets, reload %d", len(nets), len(want))
	}
	for i, name := range nets {
		if got[i] != want[name] {
			return fmt.Sprintf("net %s: engine slack %v, reload %v", name, got[i], want[name])
		}
	}
	return ""
}
