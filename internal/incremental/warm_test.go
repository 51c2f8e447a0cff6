package incremental

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/workload"
)

// openSoC opens an engine on the latch-based SoC generator's design. Its
// initial offsets are not a fixed point (the first forward sweep moves
// every borrowing latch), so every delay edit reaches a sweep that moves
// offsets — the warm-start path.
func openSoC(t testing.TB, cells int, seed int64, workers int) (*Engine, []string) {
	t.Helper()
	d, err := workload.SoCCells(cells, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Workers = workers
	eng, err := Open(celllib.Default(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for i := range eng.Design().Instances {
		if name := eng.Design().Instances[i].Name; eng.delayLocal(name) {
			targets = append(targets, name)
		}
	}
	if len(targets) < 64 {
		t.Fatalf("only %d delay-local instances", len(targets))
	}
	return eng, targets
}

// adjustAll builds one Adjust edit of delta per instance.
func adjustAll(delta clock.Time, insts ...string) []Edit {
	edits := make([]Edit, len(insts))
	for i, inst := range insts {
		edits[i] = Edit{Op: Adjust, Inst: inst, Delta: delta}
	}
	return edits
}

// warmStarts reads the core.warm_starts counter (telemetry must be on).
func warmStarts() int64 { return telemetry.Snapshot().Counters["core.warm_starts"] }

// TestEquivalenceWarmStart drives single-instance edits and 64-instance
// batches, small and large ±δ, over SoC engines with one and two workers,
// and deep-compares Report and Constraints with a from-scratch load after
// every edit. The large δ makes paths slow, so backward and partial
// iterations run after the warm first sweep, and the edits that follow
// warm-start from a fixed point that is itself slow.
func TestEquivalenceWarmStart(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	lib := celllib.Default()
	for _, seed := range []int64{1, 2} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				eng, targets := openSoC(t, 10000, seed, workers)
				rng := rand.New(rand.NewSource(seed*31 + int64(workers)))
				pick := func() string { return targets[rng.Intn(len(targets))] }
				small := func() clock.Time { return clock.Time(20 + rng.Intn(181)) }
				batch := make([]string, 64)
				for i, k := range rng.Perm(len(targets))[:len(batch)] {
					batch[i] = targets[k]
				}
				a, b, c := pick(), pick(), pick()
				da, db, dc, dbatch := small(), clock.Time(500000), small(), small()
				steps := []struct {
					name  string
					edits []Edit
				}{
					{"edit +δ", adjustAll(da, a)},
					{"edit −δ", adjustAll(-da, a)},
					{"batch +δ", adjustAll(dbatch, batch...)},
					{"batch −δ", adjustAll(-dbatch, batch...)},
					{"slow edit +δ", adjustAll(db, b)},
					{"edit +δ on slow", adjustAll(dc, c)},
					{"batch +δ on slow", adjustAll(dbatch, batch...)},
					{"batch −δ on slow", adjustAll(-dbatch, batch...)},
					{"edit −δ on slow", adjustAll(-dc, c)},
					{"slow edit −δ", adjustAll(-db, b)},
				}
				w0 := warmStarts()
				multi := false
				for _, st := range steps {
					out, err := eng.Apply(st.edits...)
					if err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					if !out.Incremental {
						t.Fatalf("%s: fell back (%s)", st.name, out.FallbackReason)
					}
					if out.Report.BackwardSweeps > 0 {
						multi = true
					}
					verifyAgainstScratch(t, lib, eng, st.name)
				}
				if warmStarts() == w0 {
					t.Error("no edit switched onto the previous fixed point")
				}
				if !multi {
					t.Error("no edit ran past the forward iteration")
				}
			})
		}
	}
}

// TestOutcomeReportStableAcrossEdits holds the report of every edit and
// checks that later edits never change it: the engine may recycle its
// own buffers, but never one it has handed out. The SoC's edits all move
// offsets; the pipe's never do, so its reports come from the rebased
// initial-offset result the engine keeps editing in place.
func TestOutcomeReportStableAcrossEdits(t *testing.T) {
	soc, targets := openSoC(t, 10000, 1, 2)
	rng := rand.New(rand.NewSource(7))
	slow := targets[rng.Intn(len(targets))]
	cases := []struct {
		name  string
		eng   *Engine
		edits [][]Edit
	}{
		{"SoC", soc, [][]Edit{
			adjustAll(150, targets[rng.Intn(len(targets))]),
			adjustAll(500000, slow),
			adjustAll(-80, targets[rng.Intn(len(targets))]),
			adjustAll(-500000, slow),
			adjustAll(60, targets[:64]...),
		}},
		{"pipe", openPipe(t), [][]Edit{
			adjustAll(100, "g2"), adjustAll(-100, "g2"), adjustAll(50, "g3"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshot := func(rep *core.Report) string {
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			type held struct {
				rep  *core.Report
				snap string
			}
			hold := []held{{tc.eng.Report(), snapshot(tc.eng.Report())}}
			for k, edits := range tc.edits {
				out, err := tc.eng.Apply(edits...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tc.eng.Constraints(); err != nil {
					t.Fatal(err)
				}
				for i, h := range hold {
					if snapshot(h.rep) != h.snap {
						t.Fatalf("edit %d changed the report handed out %d edits earlier", k, len(hold)-i)
					}
				}
				hold = append(hold, held{out.Report, snapshot(out.Report)})
			}
		})
	}
}

// countdownCtx cancels itself after a fixed number of Err checks, which
// the analysis makes once per cluster: a deterministic way to land a
// cancellation at a chosen point of an Apply.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledWarmApplyRollsBack cancels a delay-only batch after its
// first sweep has switched onto the previous fixed point, at several
// points of the run, and checks atomicity as TestCancelledApplyRollsBack
// does: the engine keeps its state and report, the retried batch and two
// further edits all match a from-scratch load — so the reference and the
// delays it was computed at survive the rollback.
func TestCancelledWarmApplyRollsBack(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	lib := celllib.Default()
	eng, targets := openSoC(t, 10000, 2, 2)
	rng := rand.New(rand.NewSource(11))
	batch := adjustAll(500000, targets[rng.Intn(len(targets))], targets[rng.Intn(len(targets))])
	dirty := 0
	for _, ed := range batch {
		dirty += len(eng.arcsByInst[ed.Inst]) // bounds the rebase's checks
	}
	hash, rep := eng.StateHash(), eng.Report()
	for _, after := range []int64{0, 1, 3, 20, 120} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(int64(dirty) + after)
		w0 := warmStarts()
		if _, err := eng.ApplyContext(ctx, batch...); err == nil {
			t.Fatalf("cancel after %d checks: apply reported success", after)
		}
		if warmStarts() == w0 {
			t.Fatalf("cancel after %d checks landed before the warm switch", after)
		}
		if eng.StateHash() != hash || eng.Report() != rep {
			t.Fatalf("cancel after %d checks: state or report changed", after)
		}
	}
	// An edit elsewhere first: it re-analyses from the cached base without
	// recomputing the batch's clusters, so a base left at the cancelled
	// batch's delays would show here.
	other := targets[rng.Intn(len(targets))]
	for i, edits := range [][]Edit{
		adjustAll(40, other),
		batch,
		adjustAll(90, targets[rng.Intn(len(targets))]),
		adjustAll(-500000, batch[0].Inst, batch[1].Inst),
	} {
		if _, err := eng.Apply(edits...); err != nil {
			t.Fatal(err)
		}
		verifyAgainstScratch(t, lib, eng, fmt.Sprintf("edit %d after the rollbacks", i+1))
	}
}
