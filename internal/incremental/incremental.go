// Package incremental is a change-driven analysis engine over one design:
// an edit API (resize/replace cell, adjust delays, add/remove instances,
// rewire pins), a dirty-set propagator mapping each edit to the minimal set
// of affected clusters, and a cached block-analysis state reused across
// edits through sta.Recompute.
//
// The paper's Algorithm 3 re-analyzes the network after every resynthesis
// edit; a full re-analysis re-elaborates clusters and re-runs every pass
// even when one gate changed. The engine instead keeps the elaborated
// network alive between edits and classifies each edit batch:
//
//   - Delay-only edits (adjustments, and resizes that preserve the cell's
//     pin/arc interface, on combinational instances outside the clock
//     cones) patch the affected arc delays in place, recompute only the
//     clusters owning those arcs against the cached initial-offset result,
//     and re-run the Algorithm 1 fixed point from there. The fixed point
//     itself is incremental: each sweep recomputes only the clusters
//     adjacent to elements whose offsets moved (core.Analyzer.sweep).
//   - Anything that reshapes the timing network — replacing a cell with a
//     different interface, adding or removing instances, rewiring pins, or
//     touching a synchronising element or a control cone — falls back to a
//     full re-elaboration on a private copy of the design, so a failed
//     edit never corrupts the engine.
//
// A topology checksum over the design's structure (instances, connections,
// cell interfaces — but not delays or pin caps) backstops the classifier:
// if a supposedly delay-only batch changes the checksum the engine falls
// back to full analysis rather than trust a stale elaboration.
//
// Results are bit-identical to a from-scratch core.Load + IdentifySlowPaths
// + GenerateConstraints at the same cumulative options (the equivalence
// tests assert deep equality after randomized edit sequences).
package incremental

import (
	"context"
	"fmt"
	"sort"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/delaycalc"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
)

// Edit-loop instruments, exposed in -metrics-out snapshots wherever the
// engine is linked (CLI, server, resynthesis).
var (
	mEdits             = telemetry.NewCounter("incr.edits")
	mIncrAnalyses      = telemetry.NewCounter("incr.incremental_analyses")
	mFullAnalyses      = telemetry.NewCounter("incr.full_analyses")
	mFullFallbacks     = telemetry.NewCounter("incr.full_fallbacks")
	mChecksumFallbacks = telemetry.NewCounter("incr.checksum_fallbacks")
	mDirtyClusters     = telemetry.NewCounter("incr.dirty_clusters")
	mCacheHits         = telemetry.NewCounter("incr.result_cache_hits")
	mCacheMisses       = telemetry.NewCounter("incr.result_cache_misses")
)

// Op enumerates the edit kinds.
type Op uint8

const (
	// Adjust adds Delta to every arc delay of instance Inst (the
	// interactive what-if mode of §8).
	Adjust Op = iota
	// Resize points Inst at cell To. When To has the same pin and arc
	// interface as the current cell (the drive-strength ladder case) the
	// edit is delay-only; otherwise it degrades to a Replace.
	Resize
	// Replace points Inst at cell (or module) To, whatever its interface.
	Replace
	// AddInst places the instance New.
	AddInst
	// RemoveInst deletes instance Inst.
	RemoveInst
	// Rewire connects pin Pin of instance Inst to net Net (empty Net
	// disconnects the pin).
	Rewire
)

// String names the op for reports and server responses.
func (o Op) String() string {
	switch o {
	case Adjust:
		return "adjust"
	case Resize:
		return "resize"
	case Replace:
		return "replace"
	case AddInst:
		return "add"
	case RemoveInst:
		return "remove"
	case Rewire:
		return "rewire"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Edit is one design change. Which fields matter depends on Op.
type Edit struct {
	Op    Op
	Inst  string
	To    string
	Delta clock.Time
	Pin   string
	Net   string
	New   *netlist.Instance
}

// Outcome describes how one Apply batch was analyzed.
type Outcome struct {
	// Incremental is true when the cached state was patched and only the
	// dirty clusters recomputed; false when the engine fell back to a full
	// re-elaboration.
	Incremental bool
	// DirtyClusters counts the clusters invalidated by the batch
	// (meaningful when Incremental).
	DirtyClusters int
	// FallbackReason explains a non-incremental analysis: "topology
	// change" for edits classified as structural, "checksum mismatch" when
	// the topology checksum caught a misclassified batch.
	FallbackReason string
	// Report is the Algorithm 1 report after the batch.
	Report *core.Report
}

// arcRef addresses one arc: Clusters[cluster].Arcs[arc].
type arcRef struct {
	cluster, arc int
}

// Engine holds one design's live analysis state.
//
// Engines are not safe for concurrent use; callers serialise access
// (hummingbirdd holds one mutex per session).
type Engine struct {
	lib  *celllib.Library
	opts core.Options // cumulative; Adjustments owned by the engine

	design *netlist.Design
	an     *core.Analyzer
	// base is the block analysis at the *initial* offsets (ResetOffsets
	// state) for the current design and delays: the cached sta.Result that
	// delay-only edits bring up to date with sta.Recompute instead of
	// re-running every cluster.
	base *sta.Result
	// spare is a retired base buffer recycled by the next rebase: the
	// delay-only path double-buffers e.base through sta.(*Result).CloneInto
	// so steady-state edits rebase without allocating.
	spare *sta.Result
	// Reusable applyDelayOnly scratch (cleared, never reallocated, so
	// steady-state delay edits stay off the allocator).
	scrArcs  map[arcRef]bool
	scrNets  map[string]bool
	scrUndo  []undoStep
	scrIDs   []int
	scrNames []string
	rep      *core.Report
	cons     *core.Constraints
	// odz snapshots the Algorithm-1 fixed-point offsets so Constraints()
	// (whose snatch sweeps move the offsets) can restore them.
	odz  []clock.Time
	topo uint64

	instIdx    map[string]int
	arcsByInst map[string][]arcRef
	arcsByTo   map[int][]arcRef
	// cellArcs maps, per library cell, each (from, to) pin pair to the
	// index of the cell's first arc between them, filled as reevalArc
	// meets the cell.
	cellArcs map[*celllib.Cell]map[[2]string]int

	// sharedCD marks that the analyzer's CompiledDesign is shared read-only
	// with other engines (opened through OpenShared or published to a
	// compile cache). The first mutation of arc delays unshares it via a
	// copy-on-write clone; release is then invoked exactly once to drop the
	// engine's reference on the shared design.
	sharedCD bool
	release  func()
}

// Open elaborates the design and runs the first full analysis. The design
// is edited in place by delay-only edits and replaced wholesale by
// topology edits — always read it back through Design().
func Open(lib *celllib.Library, design *netlist.Design, opts core.Options) (*Engine, error) {
	return OpenContext(nil, lib, design, opts)
}

// OpenContext is Open with cancellation of the initial analysis: on an
// expired deadline no engine is returned. A nil ctx is accepted and makes
// the open uninterruptible.
func OpenContext(ctx context.Context, lib *celllib.Library, design *netlist.Design, opts core.Options) (*Engine, error) {
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	e := &Engine{lib: lib, opts: opts, design: design}
	if err := e.loadFull(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// OpenShared opens an engine directly on an already-compiled design,
// skipping elaboration: the first full analysis runs against cd with a
// fresh AnalysisState. design must be equivalent to the one cd was
// compiled from at the same cumulative options (callers key their compile
// caches by StateKey to guarantee this). release, if non-nil, is called
// exactly once when the engine stops referencing cd — on its first
// structural or delay mutation (which unshares onto a private copy), or
// through ReleaseShared.
func OpenShared(lib *celllib.Library, design *netlist.Design, opts core.Options, cd *cluster.CompiledDesign, release func()) (*Engine, error) {
	return OpenSharedContext(nil, lib, design, opts, cd, release)
}

// OpenSharedContext is OpenShared with cancellation of the initial
// analysis. On error the shared reference is released before returning.
func OpenSharedContext(ctx context.Context, lib *celllib.Library, design *netlist.Design, opts core.Options, cd *cluster.CompiledDesign, release func()) (*Engine, error) {
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	e := &Engine{lib: lib, opts: opts, design: design, sharedCD: true, release: release}
	mFullAnalyses.Inc()
	mCacheMisses.Inc()
	an := core.LoadCompiled(cd, design, e.opts)
	if err := e.analyzeFresh(ctx, an); err != nil {
		e.ReleaseShared()
		return nil, err
	}
	return e, nil
}

// Design returns the engine's current design.
func (e *Engine) Design() *netlist.Design { return e.design }

// CompiledDesign returns the analyzer's current compiled design.
func (e *Engine) CompiledDesign() *cluster.CompiledDesign { return e.an.CD }

// SharedCompiled reports whether the compiled design is still shared.
func (e *Engine) SharedCompiled() bool { return e.sharedCD }

// ShareCompiled marks the engine's compiled design as shared and installs
// the reference-drop callback — the cold-open half of a compile cache:
// open privately, publish the compiled design, then mark it shared so a
// later mutation unshares instead of corrupting other sessions.
func (e *Engine) ShareCompiled(release func()) {
	e.sharedCD = true
	e.release = release
}

// ReleaseShared drops the engine's reference on a shared compiled design,
// if any, without unsharing. Idempotent. Owners (session servers) call it
// when discarding an engine.
func (e *Engine) ReleaseShared() {
	e.sharedCD = false
	if e.release != nil {
		e.release()
		e.release = nil
	}
}

// unshare gives the engine a private copy-on-write twin of a shared
// compiled design before the first delay mutation: the flat arc backing is
// copied, and a private delay calculator is rebuilt at the engine's
// cumulative adjustments (delay evaluation is deterministic, so the clone's
// delays are bit-identical to the shared ones). No-op on private designs.
func (e *Engine) unshare() error {
	if !e.sharedCD {
		return nil
	}
	cd2 := e.an.CD.CloneArcs()
	calc, err := delaycalc.NewIndexed(e.an.Lib, e.design, e.an.CD.Calc.Index(), e.opts.Delay)
	if err != nil {
		return err
	}
	for inst, delta := range e.opts.Adjustments {
		calc.Adjust(inst, delta)
	}
	cd2.Network.Calc = calc
	e.an.CD = cd2
	e.an.St.Rebind(cd2)
	e.ReleaseShared()
	return nil
}

// Analyzer returns the live analyzer (elaborated network, resolved
// library). It is replaced by topology edits — re-fetch after Apply.
func (e *Engine) Analyzer() *core.Analyzer { return e.an }

// Report returns the Algorithm 1 report for the current state, or nil if
// the last analysis failed (the next Apply or Constraints call rebuilds).
func (e *Engine) Report() *core.Report { return e.rep }

// Options returns the cumulative options (base options plus every
// adjustment applied so far); the Adjustments map is a copy. Loading the
// current Design() with these options from scratch reproduces the engine's
// state exactly.
func (e *Engine) Options() core.Options {
	opts := e.opts
	opts.Adjustments = cloneAdjust(opts.Adjustments)
	return opts
}

// Constraints runs Algorithm 2 at the current fixed point, reusing the
// final Algorithm 1 analysis instead of re-analyzing, and restores the
// fixed-point offsets afterwards (the snatch sweeps move them). The result
// is cached until the next edit.
func (e *Engine) Constraints() (*core.Constraints, error) {
	return e.ConstraintsContext(nil)
}

// ConstraintsContext is Constraints with cancellation. An interrupted
// snatch fixed point restores the Algorithm-1 offsets before returning,
// so the engine stays usable; only the constraints cache is left cold.
func (e *Engine) ConstraintsContext(ctx context.Context) (*core.Constraints, error) {
	if e.cons != nil {
		return e.cons, nil
	}
	if e.rep == nil {
		if err := e.loadFull(ctx); err != nil {
			return nil, err
		}
	}
	var cons *core.Constraints
	var err error
	if ctx != nil {
		cons, err = e.an.GenerateConstraintsFromCtx(ctx, e.rep.Result.Clone())
	} else {
		cons, err = e.an.GenerateConstraintsFrom(e.rep.Result.Clone())
	}
	e.restoreOffsets()
	if err != nil {
		return nil, err
	}
	e.cons = cons
	return cons, nil
}

// Apply applies a batch of edits as one unit and re-analyzes. Apply is
// atomic: on any error — validation, cancellation, or a non-convergent
// fixed point — the engine (design, adjustments, delays, cached report)
// is exactly as it was before the call, so the previous report keeps
// serving and retrying the same batch applies it exactly once.
func (e *Engine) Apply(edits ...Edit) (*Outcome, error) {
	return e.ApplyContext(nil, edits...)
}

// ApplyContext is Apply with cancellation of the re-analysis. The
// atomicity guarantee of Apply holds for interruptions too: a cancelled
// delay-only batch rolls its in-place patches back and a cancelled full
// rebuild never adopts the edited design copy, so callers that persist
// acknowledged batches (hummingbirdd's journal) stay consistent with the
// live engine across timeouts.
func (e *Engine) ApplyContext(ctx context.Context, edits ...Edit) (*Outcome, error) {
	if len(edits) == 0 {
		return &Outcome{Incremental: true, Report: e.rep}, nil
	}
	if e.rep == nil {
		if err := e.loadFull(ctx); err != nil {
			return nil, err
		}
	}
	_, csp := span.Start(ctx, "incr.classify")
	csp.AnnotateInt("edits", len(edits))
	delayOnly, err := e.classify(edits)
	if delayOnly {
		csp.Annotate("class", "delay-only")
	} else {
		csp.Annotate("class", "topology")
	}
	csp.End()
	if err != nil {
		return nil, err
	}
	mEdits.Add(int64(len(edits)))
	if !delayOnly {
		return e.applyFull(ctx, edits)
	}
	return e.applyDelayOnly(ctx, edits)
}

// classify validates every edit and reports whether the whole batch is
// delay-only. It performs no mutation — which makes it the chaos suite's
// injection site for "edit rejected before touching anything".
func (e *Engine) classify(edits []Edit) (bool, error) {
	if err := failpoint.Hit("incr.classify"); err != nil {
		return false, err
	}
	delayOnly := true
	// batch tracks instances added (true) or removed (false) by earlier
	// edits in this batch, so later edits can reference them.
	batch := map[string]bool{}
	exists := func(name string) bool {
		if v, ok := batch[name]; ok {
			return v
		}
		_, ok := e.instIdx[name]
		return ok
	}
	for i := range edits {
		ed := &edits[i]
		switch ed.Op {
		case AddInst:
			if ed.New == nil || ed.New.Name == "" {
				return false, fmt.Errorf("incremental: add: missing instance")
			}
			if exists(ed.New.Name) {
				return false, fmt.Errorf("incremental: add: duplicate instance %q", ed.New.Name)
			}
			batch[ed.New.Name] = true
			delayOnly = false
		case Adjust, Resize, Replace, RemoveInst, Rewire:
			if !exists(ed.Inst) {
				return false, fmt.Errorf("incremental: %s: unknown instance %q", ed.Op, ed.Inst)
			}
			switch ed.Op {
			case Adjust:
				if !e.delayLocal(ed.Inst) {
					delayOnly = false
				}
			case Resize, Replace:
				if e.lib.Cell(ed.To) == nil && e.design.Modules[ed.To] == nil {
					return false, fmt.Errorf("incremental: %s %s: unknown cell %q", ed.Op, ed.Inst, ed.To)
				}
				if ed.Op == Replace || !e.resizeCompatible(ed.Inst, ed.To) {
					delayOnly = false
				}
			case RemoveInst:
				batch[ed.Inst] = false
				delayOnly = false
			case Rewire:
				if ed.Pin == "" {
					return false, fmt.Errorf("incremental: rewire %s: missing pin", ed.Inst)
				}
				delayOnly = false
			}
		default:
			return false, fmt.Errorf("incremental: unknown op %d", ed.Op)
		}
	}
	return delayOnly, nil
}

// delayLocal reports whether edits to the instance's delays stay inside
// cluster arcs: a resolved combinational cell with no connection into a
// clock cone. Instances added earlier in the same batch never qualify.
func (e *Engine) delayLocal(name string) bool {
	idx, ok := e.instIdx[name]
	if !ok {
		return false
	}
	inst := &e.design.Instances[idx]
	cell := e.an.Lib.Cell(inst.Ref)
	if cell == nil || cell.IsSync() {
		return false
	}
	for _, net := range inst.Conns {
		if id, ok := e.an.CD.NetIdx[net]; ok && e.an.CD.IsControlNet(id) {
			return false
		}
	}
	return true
}

// resizeCompatible reports whether swapping the instance's cell for `to`
// preserves the elaborated network's shape (same pins in the same order,
// same arcs — only the delay expressions and input capacitances may
// differ).
func (e *Engine) resizeCompatible(name, to string) bool {
	if !e.delayLocal(name) {
		return false
	}
	cur := e.an.Lib.Cell(e.design.Instances[e.instIdx[name]].Ref)
	neu := e.an.Lib.Cell(to)
	return cur != nil && neu != nil && sameInterface(cur, neu)
}

func sameInterface(a, b *celllib.Cell) bool {
	if a.Kind != b.Kind || a.IsSync() || b.IsSync() {
		return false
	}
	if len(a.Pins) != len(b.Pins) || len(a.Arcs) != len(b.Arcs) {
		return false
	}
	// Pins must also come in the same order: the net index lays an
	// instance's connections out by pin position, and a swap keeps it.
	for k := range a.Pins {
		if a.Pins[k].Name != b.Pins[k].Name || a.Pins[k].Dir != b.Pins[k].Dir {
			return false
		}
	}
	type arcKey struct {
		from, to string
		sense    celllib.Sense
	}
	arcs := make(map[arcKey]int, len(a.Arcs))
	for _, ar := range a.Arcs {
		arcs[arcKey{ar.From, ar.To, ar.Sense}]++
	}
	for _, ar := range b.Arcs {
		k := arcKey{ar.From, ar.To, ar.Sense}
		if arcs[k] == 0 {
			return false
		}
		arcs[k]--
	}
	return true
}

// undoStep records how to reverse one delay-only mutation; adjustments
// are additive (reverse by negating the delta) and resizes restore the
// previous cell ref.
type undoStep struct {
	isAdjust bool
	inst     string     // Adjust: instance name
	delta    clock.Time // Adjust: applied delta
	instIdx  int        // Resize: instance index
	oldRef   string     // Resize: previous cell ref
}

// applyDelayOnly patches arc delays in place and recomputes only the dirty
// clusters against the cached initial-offset result. Every error path runs
// the undo log, so a failed batch (cancellation, non-convergence, a failed
// checksum-fallback rebuild) leaves the engine bit-identical to its state
// before the call — including the still-valid previous report.
func (e *Engine) applyDelayOnly(ctx context.Context, edits []Edit) (*Outcome, error) {
	// Delay-only edits mutate arc delays and the delay calculator — never
	// a shared compiled design. Unshare (copy-on-write) first.
	if err := e.unshare(); err != nil {
		return nil, err
	}
	if e.scrArcs == nil {
		e.scrArcs = map[arcRef]bool{}
		e.scrNets = map[string]bool{}
	}
	clear(e.scrArcs)
	clear(e.scrNets)
	affectedNets := e.scrNets
	dirtyArcs := e.scrArcs
	oldBase := e.base
	undo := e.scrUndo[:0]
	nets := e.scrNames[:0]
	rollback := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			if u.isAdjust {
				e.opts.Adjustments[u.inst] -= u.delta
				if e.opts.Adjustments[u.inst] == 0 {
					delete(e.opts.Adjustments, u.inst)
				}
				e.an.CD.Calc.Adjust(u.inst, -u.delta)
			} else {
				e.design.Instances[u.instIdx].Ref = u.oldRef
			}
		}
		e.an.CD.Calc.RefreshLoads(nets)
		for r := range dirtyArcs {
			e.reevalArc(r)
		}
		e.base = oldBase
		e.restoreOffsets()
	}
	// topo tracks the checksum across the batch: the sum-composed
	// TopologyChecksum lets each mutation shift it by (new term − old term)
	// without rehashing the whole design.
	topo := e.topo
	for _, ed := range edits {
		inst := &e.design.Instances[e.instIdx[ed.Inst]]
		switch ed.Op {
		case Adjust:
			if e.opts.Adjustments == nil {
				e.opts.Adjustments = map[string]clock.Time{}
			}
			e.opts.Adjustments[inst.Name] += ed.Delta
			if e.opts.Adjustments[inst.Name] == 0 {
				delete(e.opts.Adjustments, inst.Name)
			}
			e.an.CD.Calc.Adjust(inst.Name, ed.Delta)
			undo = append(undo, undoStep{isAdjust: true, inst: inst.Name, delta: ed.Delta})
		case Resize:
			cur := e.an.Lib.Cell(inst.Ref)
			neu := e.an.Lib.Cell(ed.To)
			// An input-pin capacitance change alters the load — and hence
			// the delay — of every arc driving that pin's net.
			for _, p := range cur.Pins {
				if p.Dir != celllib.In {
					continue
				}
				if np := neu.Pin(p.Name); np != nil && np.C != p.C {
					if net, ok := inst.Conns[p.Name]; ok {
						affectedNets[net] = true
					}
				}
			}
			topo -= instanceTerm(inst, e.an.Lib)
			undo = append(undo, undoStep{instIdx: e.instIdx[ed.Inst], oldRef: inst.Ref})
			inst.Ref = ed.To
			topo += instanceTerm(inst, e.an.Lib)
		}
		for _, r := range e.arcsByInst[inst.Name] {
			dirtyArcs[r] = true
		}
	}
	if len(affectedNets) > 0 {
		for n := range affectedNets {
			nets = append(nets, n)
		}
		sort.Strings(nets)
		e.an.CD.Calc.RefreshLoads(nets)
		for _, net := range nets {
			if id, ok := e.an.CD.NetIdx[net]; ok {
				for _, r := range e.arcsByTo[id] {
					dirtyArcs[r] = true
				}
			}
		}
	}
	ids := e.scrIDs[:0]
	for r := range dirtyArcs {
		e.reevalArc(r)
		seen := false
		for _, id := range ids {
			if id == r.cluster {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, r.cluster)
		}
	}
	sort.Ints(ids)
	e.scrUndo, e.scrIDs, e.scrNames = undo, ids, nets

	// Checksum fallback: if the batch somehow changed the design's
	// structure (e.g. a resize onto a cell whose interface differs in a way
	// the classifier's check missed), the elaboration above is stale —
	// rebuild everything.
	if topo != e.topo {
		mChecksumFallbacks.Inc()
		if err := e.loadFull(ctx); err != nil {
			// loadFull failed before adopting anything, so the surviving
			// analyzer still matches the pre-batch design once the patches
			// are reversed.
			rollback()
			return nil, err
		}
		return &Outcome{FallbackReason: "checksum mismatch", Report: e.rep}, nil
	}

	mIncrAnalyses.Inc()
	mCacheHits.Inc()
	mDirtyClusters.Add(int64(len(ids)))

	// Replay the from-scratch computation: initial offsets, cached base
	// result with just the dirty clusters recomputed, then the incremental
	// Algorithm 1 fixed point. Any interruption rolls the patches back —
	// the previous report and base cache stay live, and the caller can
	// retry the identical batch.
	e.an.ResetOffsets()
	res := e.base.Clone()
	if len(ids) > 0 {
		// Large dirty sets (≥ the sta threshold) ride the level-scheduled
		// parallel walk when the engine was opened with Options.Workers;
		// small ones stay on the sequential allocation-free path.
		if ctx != nil {
			if err := sta.RecomputeParallelContext(ctx, e.an.CD, e.an.St, res, ids, e.opts.Workers); err != nil {
				rollback()
				return nil, err
			}
		} else {
			sta.RecomputeParallel(e.an.CD, e.an.St, res, ids, e.opts.Workers)
		}
		e.base = res.CloneInto(e.spare)
		e.spare = nil
	}
	var rep *core.Report
	var err error
	if ctx != nil {
		rep, err = e.an.IdentifySlowPathsFromCtx(ctx, res)
	} else {
		rep, err = e.an.IdentifySlowPathsFrom(res)
	}
	if err != nil {
		rollback()
		return nil, err
	}
	e.rep, e.cons = rep, nil
	if oldBase != e.base {
		e.spare = oldBase // recycle the retired base for the next rebase
	}
	e.snapshotOffsets()
	return &Outcome{Incremental: true, DirtyClusters: len(ids), Report: rep}, nil
}

// reevalArc re-evaluates one cluster arc's delays at the current loads and
// adjustments.
func (e *Engine) reevalArc(r arcRef) {
	cl := e.an.CD.Network.Clusters[r.cluster]
	a := &cl.Arcs[r.arc]
	inst := &e.design.Instances[e.instIdx[a.Inst]]
	cell := e.an.Lib.Cell(inst.Ref)
	if cell == nil {
		return
	}
	// A lookup rather than a scan of the cell's arcs: re-evaluating every
	// arc of a wide cell (a rolled-up module) would otherwise be quadratic.
	first, ok := e.cellArcs[cell]
	if !ok {
		first = make(map[[2]string]int, len(cell.Arcs))
		for ai := len(cell.Arcs) - 1; ai >= 0; ai-- {
			first[[2]string{cell.Arcs[ai].From, cell.Arcs[ai].To}] = ai
		}
		e.cellArcs[cell] = first
	}
	if ai, ok := first[[2]string{a.FromPin, a.ToPin}]; ok {
		a.D = e.an.CD.Calc.ArcDelaysAt(inst, &cell.Arcs[ai], a.To)
	}
}

// applyFull applies the batch to a private copy of the design and
// re-elaborates; the engine only adopts the copy if the rebuild succeeds.
func (e *Engine) applyFull(ctx context.Context, edits []Edit) (*Outcome, error) {
	mFullFallbacks.Inc()
	d2 := cloneDesign(e.design)
	adj2 := cloneAdjust(e.opts.Adjustments)
	idx := make(map[string]int, len(d2.Instances))
	for i := range d2.Instances {
		idx[d2.Instances[i].Name] = i
	}
	for _, ed := range edits {
		switch ed.Op {
		case Adjust:
			adj2[ed.Inst] += ed.Delta
			if adj2[ed.Inst] == 0 {
				delete(adj2, ed.Inst)
			}
		case Resize, Replace:
			d2.Instances[idx[ed.Inst]].Ref = ed.To
		case AddInst:
			ni := netlist.Instance{Name: ed.New.Name, Ref: ed.New.Ref,
				Conns: make(map[string]string, len(ed.New.Conns))}
			for pin, net := range ed.New.Conns {
				ni.Conns[pin] = net
			}
			d2.Instances = append(d2.Instances, ni)
			idx[ni.Name] = len(d2.Instances) - 1
		case RemoveInst:
			i := idx[ed.Inst]
			d2.Instances = append(d2.Instances[:i], d2.Instances[i+1:]...)
			delete(adj2, ed.Inst)
			for j := i; j < len(d2.Instances); j++ {
				idx[d2.Instances[j].Name] = j
			}
			delete(idx, ed.Inst)
		case Rewire:
			inst := &d2.Instances[idx[ed.Inst]]
			if ed.Net == "" {
				delete(inst.Conns, ed.Pin)
			} else {
				inst.Conns[ed.Pin] = ed.Net
			}
		}
	}
	oldDesign, oldAdj := e.design, e.opts.Adjustments
	e.design, e.opts.Adjustments = d2, adj2
	if err := e.loadFull(ctx); err != nil {
		e.design, e.opts.Adjustments = oldDesign, oldAdj
		return nil, err
	}
	return &Outcome{FallbackReason: "topology change", Report: e.rep}, nil
}

// loadFull re-elaborates the current design and runs a full analysis,
// refreshing every cache (ctx may be nil: uninterruptible). The engine's
// previous state survives a failed or interrupted elaboration; a
// non-convergent fixed point invalidates the report.
func (e *Engine) loadFull(ctx context.Context) error {
	mFullAnalyses.Inc()
	mCacheMisses.Inc()
	an, err := core.Load(e.lib, e.design, e.opts)
	if err != nil {
		return err
	}
	if err := e.analyzeFresh(ctx, an); err != nil {
		return err
	}
	// The rebuilt analyzer owns a private compiled design; drop any
	// reference still held on a shared one.
	e.ReleaseShared()
	return nil
}

// analyzeFresh runs the first full analysis on a freshly constructed
// analyzer and, on success, adopts it along with rebuilt caches and
// indexes. The engine's previous state survives a failure.
func (e *Engine) analyzeFresh(ctx context.Context, an *core.Analyzer) error {
	var res *sta.Result
	var err error
	if ctx != nil {
		if res, err = sta.AnalyzeParallelContext(ctx, an.CD, an.St, an.Opts.Workers); err != nil {
			return err
		}
	} else {
		res = sta.AnalyzeParallel(an.CD, an.St, an.Opts.Workers)
	}
	base := res.Clone()
	var rep *core.Report
	if ctx != nil {
		rep, err = an.IdentifySlowPathsFromCtx(ctx, res)
	} else {
		rep, err = an.IdentifySlowPathsFrom(res)
	}
	if err != nil {
		return err
	}
	e.an, e.base, e.rep, e.cons = an, base, rep, nil
	e.snapshotOffsets()
	e.topo = e.topoHash()
	e.buildIndexes()
	return nil
}

func (e *Engine) snapshotOffsets() { e.odz = e.an.St.SnapshotOffsets(e.odz) }

func (e *Engine) restoreOffsets() { e.an.St.RestoreOffsets(e.odz) }

func (e *Engine) buildIndexes() {
	e.instIdx = make(map[string]int, len(e.design.Instances))
	for i := range e.design.Instances {
		e.instIdx[e.design.Instances[i].Name] = i
	}
	e.arcsByInst = map[string][]arcRef{}
	e.arcsByTo = map[int][]arcRef{}
	e.cellArcs = map[*celllib.Cell]map[[2]string]int{}
	for ci, cl := range e.an.CD.Network.Clusters {
		for ai := range cl.Arcs {
			a := &cl.Arcs[ai]
			e.arcsByInst[a.Inst] = append(e.arcsByInst[a.Inst], arcRef{ci, ai})
			e.arcsByTo[a.To] = append(e.arcsByTo[a.To], arcRef{ci, ai})
		}
	}
}

// cloneDesign deep-copies the mutable parts of a design. Module bodies are
// shared: the engine never edits inside modules.
func cloneDesign(d *netlist.Design) *netlist.Design {
	c := &netlist.Design{
		Name:      d.Name,
		Clocks:    append([]clock.Signal(nil), d.Clocks...),
		Ports:     append([]netlist.Port(nil), d.Ports...),
		Instances: make([]netlist.Instance, len(d.Instances)),
		Modules:   d.Modules,
	}
	for i, inst := range d.Instances {
		conns := make(map[string]string, len(inst.Conns))
		for pin, net := range inst.Conns {
			conns[pin] = net
		}
		c.Instances[i] = netlist.Instance{Name: inst.Name, Ref: inst.Ref, Conns: conns}
	}
	return c
}

func cloneAdjust(m map[string]clock.Time) map[string]clock.Time {
	c := make(map[string]clock.Time, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
