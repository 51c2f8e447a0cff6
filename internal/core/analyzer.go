// Package core implements the paper's system-level timing-analysis
// algorithms: Algorithm 1 (identification of slow paths via complete and
// partial slack transfer) and Algorithm 2 (timing-constraint generation via
// time snatching), over the elaborated network of internal/cluster and the
// block slack computation of internal/sta.
//
// The analyzer owns the synchronising-element offsets (the Odz degrees of
// freedom of the transparent latches) and drives them to the fixed points
// the paper defines. After Algorithm 1, every synchronising-element
// terminal on a too-slow path has non-positive node slack and all other
// terminals have strictly positive slack (marginally fast paths may be
// flagged slow — a consequence of the simplified element model the paper
// accepts, §6).
package core

import (
	"context"
	"math/bits"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/syncelem"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
)

// Options tunes the analyzer.
type Options struct {
	// PartialDivisor is the divisor n > 1 of the §6 partial slack
	// transfers (iterations 3 and 4 of Algorithm 1). Default 2.
	PartialDivisor int64
	// MaxSweeps caps each iteration's sweep count as a safety net. The
	// paper bounds acyclic designs at one more sweep than the number of
	// synchronising elements on a directed path; combinational cycles
	// through latches (§3) circulate their deficit, and a *feasible* loop
	// operating near its critical utilisation can need on the order of
	// W/loop-slack sweeps before the borrowing settles. Default:
	// max(64, 4 × elements); raise it for near-critical loop-heavy
	// designs if the non-convergence error suggests so.
	MaxSweeps int
	// Delay evaluation options for the load model.
	Delay delaycalc.Options
	// Adjustments holds per-instance additive delay adjustments (ps),
	// applied before elaboration — the interactive what-if mode of §8.
	Adjustments map[string]clock.Time
	// Workers sets the worker count of the level-scheduled parallel block
	// analysis: full analyses and sufficiently large incremental
	// recomputes are spread across this many goroutines (see
	// sta.AnalyzeParallel / sta.RecomputeParallel). 0 or 1 keeps every
	// analysis sequential; results are identical either way.
	Workers int
	// FullSweeps disables incremental re-analysis: every fixed-point sweep
	// recomputes every cluster, as the paper's plain formulation does.
	// The default (incremental) recomputes only the clusters adjacent to
	// elements whose offsets moved; results are identical (the A6
	// ablation measures the speed difference).
	FullSweeps bool
	// Trace, when non-nil, receives one structured telemetry.SweepEvent
	// per fixed-point sweep (convergence tracing) and causes the full
	// trajectory to be retained on the Report / Constraints. Leave nil
	// on production hot paths: the untraced per-sweep cost is a ring
	// buffer write with no allocation and no clock read.
	Trace *telemetry.Tracer
}

// DefaultOptions returns the options used by the benchmarks.
func DefaultOptions() Options {
	return Options{PartialDivisor: 2, Delay: delaycalc.DefaultOptions()}
}

// defaultMaxSweeps sizes the sweep safety cap; see Options.MaxSweeps.
func defaultMaxSweeps(elems int) int {
	if n := 4 * elems; n > 64 {
		return n
	}
	return 64
}

// Analyzer binds a design to its compiled timing view and drives the
// timing algorithms. The compiled design (CD) is immutable and may be
// shared with other analyzers; everything the algorithms move — the
// element offsets and scratch — lives in the private analysis state (St).
type Analyzer struct {
	Lib    *celllib.Library // resolved library (base + rolled-up modules)
	Design *netlist.Design
	CD     *cluster.CompiledDesign
	St     *sta.AnalysisState
	Opts   Options

	// dirty/dirtyIDs are sweep's reusable dirty-cluster bitset and sorted
	// id scratch, so fixed-point sweeps stop allocating on the hot path.
	dirty    []uint64
	dirtyIDs []int

	// conv is the convergence trail of the current fixed-point run (see
	// trace.go); reset at the top of IdentifySlowPaths and
	// GenerateConstraints.
	conv convTrail
}

// newAnalyzer wires an analyzer onto a compiled design with a fresh state.
func newAnalyzer(lib *celllib.Library, design *netlist.Design, cd *cluster.CompiledDesign, opts Options) *Analyzer {
	return &Analyzer{
		Lib: lib, Design: design, CD: cd,
		St:    sta.NewState(cd),
		Opts:  opts,
		dirty: make([]uint64, (len(cd.Network.Clusters)+63)/64),
	}
}

// sweep applies op to every element against the current result, then
// refreshes res — incrementally over the touched clusters unless
// FullSweeps is set. It returns how many element offsets moved and how
// many clusters were recomputed. iter and k name the fixed-point
// iteration and the sweep's index within it, labelling the per-sweep
// request span (each sweep of a traced request becomes one "core.sweep"
// child whose own child is the sta recompute it triggered). A nil ctx
// (the legacy entry points) makes the sweep uninterruptible; with a
// context the re-analysis is abandoned mid-sweep on expiry, returning
// the cause — res is then stale and must be discarded.
func (a *Analyzer) sweep(ctx context.Context, iter string, k int, res *sta.Result, op func(ei int, e *syncelem.Element) clock.Time) (*sta.Result, int, int, error) {
	mSweeps.Inc()
	sctx, sp := span.Start(ctx, "core.sweep")
	sp.Annotate("iteration", iter)
	sp.AnnotateInt("sweep", k)
	defer sp.End()
	// The dirty-cluster set is a reusable bitset on the analyzer: one
	// sweep runs per fixed-point step, so a per-call map is hot-path
	// garbage.
	for i := range a.dirty {
		a.dirty[i] = 0
	}
	moved := 0
	for ei, e := range a.CD.Elems {
		if op(ei, e) > 0 {
			moved++
			for _, cl := range a.CD.ElemClusters[ei] {
				a.dirty[cl>>6] |= 1 << (uint(cl) & 63)
			}
		}
	}
	sp.AnnotateInt("moved", moved)
	if moved == 0 {
		return res, 0, 0, nil
	}
	mOffsetsMoved.Add(int64(moved))
	if a.Opts.FullSweeps {
		mFullSweeps.Inc()
		if ctx != nil {
			r, err := sta.AnalyzeParallelContext(sctx, a.CD, a.St, a.Opts.Workers)
			return r, moved, len(a.CD.CC), err
		}
		return sta.AnalyzeParallel(a.CD, a.St, a.Opts.Workers), moved, len(a.CD.CC), nil
	}
	ids := a.dirtyIDs[:0]
	for w, word := range a.dirty {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, w*64+bits.TrailingZeros64(word))
		}
	}
	a.dirtyIDs = ids
	mIncrClusters.Add(int64(len(ids)))
	mIncrSkipped.Add(int64(len(a.CD.CC) - len(ids)))
	if ctx != nil {
		if err := sta.RecomputeParallelContext(sctx, a.CD, a.St, res, ids, a.Opts.Workers); err != nil {
			return nil, moved, len(ids), err
		}
		return res, moved, len(ids), nil
	}
	sta.RecomputeParallel(a.CD, a.St, res, ids, a.Opts.Workers)
	return res, moved, len(ids), nil
}

// Load validates a design, resolves its hierarchy (rolling combinational
// modules up into super-cells, §8's SM1H path), evaluates component delays
// and elaborates the timing network. It is the single entry point the
// executables and examples use.
func Load(lib *celllib.Library, design *netlist.Design, opts Options) (*Analyzer, error) {
	t0 := time.Now()
	defer func() { tLoad.Observe(time.Since(t0)) }()
	if opts.PartialDivisor <= 1 {
		opts.PartialDivisor = 2
	}
	// One net index serves validation, delay calculation and elaboration.
	// Built against the unresolved library it lays module instances out by
	// module port, the pin order of their rolled-up super-cells.
	idx := netlist.NewIndex(design, lib)
	if err := design.ValidateIndex(lib, idx); err != nil {
		return nil, err
	}
	resolved := lib
	if len(design.Modules) > 0 {
		ext, err := delaycalc.RollUpModules(lib, design, opts.Delay)
		if err != nil {
			return nil, err
		}
		resolved = ext
	}
	cs, err := design.ClockSet()
	if err != nil {
		return nil, err
	}
	calc, err := delaycalc.NewIndexed(resolved, design, idx, opts.Delay)
	if err != nil {
		return nil, err
	}
	for inst, delta := range opts.Adjustments {
		calc.Adjust(inst, delta)
	}
	nw, err := cluster.Build(resolved, design, cs, calc)
	if err != nil {
		return nil, err
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = defaultMaxSweeps(len(nw.Elems))
	}
	return newAnalyzer(resolved, design, cluster.Compile(nw), opts), nil
}

// LoadFlat is Load for an already-resolved (flat) design with a prebuilt
// network — used by tests that construct networks directly. The network is
// compiled (frozen) here; it must not be mutated afterwards.
func LoadFlat(nw *cluster.Network, opts Options) *Analyzer {
	return LoadCompiled(cluster.Compile(nw), nw.Design, opts)
}

// LoadCompiled binds a new analyzer — with its own fresh AnalysisState —
// onto an existing compiled design, sharing it read-only with whoever else
// holds it. This is how same-design sessions avoid re-elaborating: compile
// once, open many.
func LoadCompiled(cd *cluster.CompiledDesign, design *netlist.Design, opts Options) *Analyzer {
	if opts.PartialDivisor <= 1 {
		opts.PartialDivisor = 2
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = defaultMaxSweeps(len(cd.Elems))
	}
	if design == nil {
		design = cd.Design
	}
	return newAnalyzer(cd.Lib, design, cd, opts)
}

// Report is the outcome of Algorithm 1.
type Report struct {
	// OK is true when every path is fast enough (all slacks positive).
	OK bool
	// Result is the final block analysis at the fixed-point offsets.
	Result *sta.Result
	// ForwardSweeps / BackwardSweeps count the complete-transfer cycles of
	// iterations 1 and 2 (the paper's run-time driver: "the number of
	// iterations required ... depend[s] upon the specified clock speeds").
	ForwardSweeps, BackwardSweeps int
	// SlowElems lists the element indices whose terminals ended with
	// non-positive slack (members of too-slow paths).
	SlowElems []int
	// SlowPaths holds one worst path per violated capture terminal.
	SlowPaths []SlowPath
	// Trajectory is the full convergence trace — one event per
	// fixed-point sweep, in execution order. Populated only when
	// Options.Trace is set.
	Trajectory []telemetry.SweepEvent
}

// WorstSlack returns the minimum terminal slack of the final analysis.
func (r *Report) WorstSlack() clock.Time { return r.Result.WorstSlack() }

// allPositive reports whether every element terminal slack is > 0.
func allPositive(res *sta.Result) bool {
	for i := range res.InSlack {
		if res.InSlack[i] <= 0 || res.OutSlack[i] <= 0 {
			return false
		}
	}
	return true
}

// ResetOffsets restores every element's initial offsets (Algorithm 1's
// "select any set of offsets satisfying the synchronising element
// constraints" uses the latest-closure initialisation of syncelem.Build).
func (a *Analyzer) ResetOffsets() { a.St.Reset() }

// IdentifySlowPaths runs Algorithm 1 and returns the report. It cannot be
// interrupted; servers and other callers with deadlines use
// IdentifySlowPathsCtx.
func (a *Analyzer) IdentifySlowPaths() (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	return a.identifySlowPathsFrom(nil, sta.AnalyzeParallel(a.CD, a.St, a.Opts.Workers))
}

// IdentifySlowPathsCtx is IdentifySlowPaths with cancellation: the context
// is checked inside every fixed-point sweep (between cluster
// re-analyses), so an expired deadline interrupts even a single
// long-running sweep. The returned error is a *CancelledError wrapping
// the cause.
func (a *Analyzer) IdentifySlowPathsCtx(ctx context.Context) (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	res, err := sta.AnalyzeParallelContext(ctx, a.CD, a.St, a.Opts.Workers)
	if err != nil {
		a.conv.reset(a.Opts.Trace != nil)
		return nil, a.cancelled("", 0, err)
	}
	return a.identifySlowPathsFrom(ctx, res)
}

// IdentifySlowPathsFrom runs Algorithm 1 starting from res, which must be
// the block analysis of the network at its current offsets (for example a
// cached result brought up to date with sta.Recompute). res is consumed:
// the fixed point mutates it in place and the report retains it.
func (a *Analyzer) IdentifySlowPathsFrom(res *sta.Result) (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	return a.identifySlowPathsFrom(nil, res)
}

// IdentifySlowPathsFromCtx is IdentifySlowPathsFrom with cancellation;
// see IdentifySlowPathsCtx. On error res has been partially mutated and
// must be discarded along with the offsets (call ResetOffsets before
// reusing the analyzer).
func (a *Analyzer) IdentifySlowPathsFromCtx(ctx context.Context, res *sta.Result) (*Report, error) {
	t0 := time.Now()
	defer func() { tAnalysis.Observe(time.Since(t0)) }()
	return a.identifySlowPathsFrom(ctx, res)
}

// identifySlowPathsFrom is Algorithm 1. A nil ctx runs it to completion
// unconditionally; a non-nil ctx makes every sweep interruptible, with
// interruptions surfaced as *CancelledError.
func (a *Analyzer) identifySlowPathsFrom(ctx context.Context, res *sta.Result) (*Report, error) {
	a.conv.reset(a.Opts.Trace != nil)
	rep := &Report{}

	// Iteration 1: complete forward slack transfer to a fixed point.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("forward")
		}
		rep.ForwardSweeps++
		if allPositive(res) {
			return a.finish(rep, res)
		}
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "forward", sweep, res, func(ei int, e *syncelem.Element) clock.Time {
			odz, amt := e.CompleteForwardAt(a.St.Odz[ei], res.InSlack[ei])
			a.St.Odz[ei] = odz
			return amt
		})
		if err != nil {
			return nil, a.cancelled("forward", sweep, err)
		}
		a.record("forward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}

	// Iteration 2: complete backward slack transfer to a fixed point.
	for sweep := 0; ; sweep++ {
		if sweep > a.Opts.MaxSweeps {
			return nil, a.nonConverged("backward")
		}
		rep.BackwardSweeps++
		if allPositive(res) {
			return a.finish(rep, res)
		}
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "backward", sweep, res, func(ei int, e *syncelem.Element) clock.Time {
			odz, amt := e.CompleteBackwardAt(a.St.Odz[ei], res.OutSlack[ei])
			a.St.Odz[ei] = odz
			return amt
		})
		if err != nil {
			return nil, a.cancelled("backward", sweep, err)
		}
		a.record("backward", sweep, moved, recomputed, res, start)
		if moved == 0 {
			break
		}
	}

	// Iteration 3: one partial forward transfer per complete backward
	// cycle made; iteration 4: one partial backward per forward cycle.
	// These return some time to every fast-enough path so it ends with
	// strictly positive slack (§6).
	for k := 0; k < rep.BackwardSweeps; k++ {
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "partial-forward", k, res, func(ei int, e *syncelem.Element) clock.Time {
			odz, amt := e.PartialForwardAt(a.St.Odz[ei], res.InSlack[ei], a.Opts.PartialDivisor)
			a.St.Odz[ei] = odz
			return amt
		})
		if err != nil {
			return nil, a.cancelled("partial-forward", k, err)
		}
		a.record("partial-forward", k, moved, recomputed, res, start)
	}
	for k := 0; k < rep.ForwardSweeps; k++ {
		start := a.sweepStart()
		var moved, recomputed int
		var err error
		res, moved, recomputed, err = a.sweep(ctx, "partial-backward", k, res, func(ei int, e *syncelem.Element) clock.Time {
			odz, amt := e.PartialBackwardAt(a.St.Odz[ei], res.OutSlack[ei], a.Opts.PartialDivisor)
			a.St.Odz[ei] = odz
			return amt
		})
		if err != nil {
			return nil, a.cancelled("partial-backward", k, err)
		}
		a.record("partial-backward", k, moved, recomputed, res, start)
	}

	// Final step: all node slacks are current in res (sweep keeps them up
	// to date, incrementally or in full).
	return a.finish(rep, res)
}

func (a *Analyzer) finish(rep *Report, res *sta.Result) (*Report, error) {
	rep.Result = res
	rep.OK = allPositive(res)
	rep.Trajectory = a.conv.full
	if !rep.OK {
		for ei := range a.CD.Elems {
			if res.InSlack[ei] <= 0 || res.OutSlack[ei] <= 0 {
				rep.SlowElems = append(rep.SlowElems, ei)
			}
		}
		rep.SlowPaths = a.traceSlowPaths(res)
	}
	return rep, nil
}

// SlowNets returns the names of all nets whose final node slack is
// non-positive — the nets the OCT-flagging option of §8 would mark.
func (a *Analyzer) SlowNets(res *sta.Result) []string {
	var out []string
	for n, s := range res.NetSlack {
		if s <= 0 {
			out = append(out, a.CD.Nets[n])
		}
	}
	return out
}
