package incremental

import (
	"testing"

	"hummingbird/internal/clock"
)

// TestDelayEditAllocs is the allocation-regression guard for incremental
// edit application: a steady-state delay-only Apply must stay within a
// handful of allocations — the fresh Result and Report handed to the caller
// (three for the result clone, one backing per recomputed cluster's pass
// details, the report and outcome structs) and nothing per-arc, per-net or
// per-pass. The engine's scratch maps, undo log, dirty-cluster ids and
// cached base result are all reused across edits; a regression here (a
// per-call map, a second result copy, sort.Slice garbage) trips the guard.
// The pipe starts positive at its initial offsets, so its edits run no
// sweep; the SoC's first sweep moves every borrowing latch and
// warm-starts from the previous fixed point.
func TestDelayEditAllocs(t *testing.T) {
	soc, targets := openSoC(t, 10000, 1, 0)
	cases := []struct {
		name string
		eng  *Engine
		inst string
	}{
		{"pipe", openPipe(t), "g2"},
		{"SoC", soc, targets[len(targets)/2]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delta := clock.Time(100)
			apply := func() {
				out, err := tc.eng.Apply(Edit{Op: Adjust, Inst: tc.inst, Delta: delta})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Incremental {
					t.Fatal("adjust fell back to full analysis")
				}
				delta = -delta
			}
			// Warm: the first edits grow the scratch structures to
			// steady-state size.
			apply()
			apply()

			allocs := testing.AllocsPerRun(50, apply)
			const limit = 10
			if allocs > limit {
				t.Fatalf("delay-only Apply allocates %.1f times per run, limit %d", allocs, limit)
			}
			t.Logf("%.1f allocs per Apply", allocs)
		})
	}
}
