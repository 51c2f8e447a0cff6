package core

import (
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/netlist"
	"hummingbird/internal/workload"
)

// loadAllocsPerCell bounds the heap allocations of one core.Load —
// validation, delay calculation, elaboration and compilation — per leaf
// cell of the 20k-cell SoC. The dense net index makes one string-keyed
// pass per open; the measured figure is ~3 allocs/cell, against ~23 for
// the string-keyed front end it replaced. The bound trips on a per-net
// or per-pin map creeping back into the front end.
const loadAllocsPerCell = 8

// TestLoadAllocsPerCell holds core.Load under the per-cell allocation
// budget. CI runs it among the allocation guards.
func TestLoadAllocsPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-cell load in -short mode")
	}
	d, err := workload.SoCCells(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	lib := celllib.Default()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Load(lib, d, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	perCell := allocs / float64(len(d.Instances))
	t.Logf("%d cells: %.0f allocs per load, %.2f per cell (budget %d)", len(d.Instances), allocs, perCell, loadAllocsPerCell)
	if perCell > loadAllocsPerCell {
		t.Fatalf("core.Load = %.2f allocs/cell, budget %d", perCell, loadAllocsPerCell)
	}
}

// FuzzLoad parses arbitrary netlist text and loads every design that
// parses, twice: Load must never panic, and a rejected design must be
// rejected with the same error both times.
func FuzzLoad(f *testing.F) {
	f.Add(`design pipe
clock phi1 period 10ns rise 0 fall 4ns
clock phi2 period 10ns rise 5ns fall 9ns
input IN clock phi2 edge fall offset 0
output OUT clock phi2 edge fall offset -0.5ns
inst g1 BUF_X1 A=IN Y=n1
inst l1 DLATCH_X1 D=n1 G=phi1 Q=q1
inst g2 INV_X1 A=q1 Y=n2
inst g3 INV_X1 A=n2 Y=n3
inst l2 DFF_X1 D=n3 CK=phi2 Q=q2
inst g4 BUF_X1 A=q2 Y=OUT
end
`)
	f.Add(`design hier
clock phi period 100ns rise 0 fall 40ns
input IN clock phi edge fall offset 0
output OUT clock phi edge fall offset 0
module COMB
  input A B
  output Y Z
  inst i1 INV_X1 A=A Y=t1
  inst i2 NAND2_X1 A=t1 B=B Y=Y
  inst i3 INV_X1 A=B Y=Z
endmodule
inst u1 COMB A=IN B=IN Y=OUT Z=z
end
`)
	f.Add(`design bad
clock phi period 10ns rise 0 fall 4ns
input IN clock phi edge rise offset 0
output OUT clock phi edge fall offset 0
inst g1 INV_X1 A=IN Y=OUT R=x Q=y P=z
inst g2 TBUF_X1 A=IN EN=phi Y=OUT
inst g3 NAND2_X1 A=ghost Y=w
end
`)
	f.Add("design d\nclock c period 10ns rise 0 fall 5ns\ninst l DLATCH_X1 D=q G=c Q=q\nend\n")
	lib := celllib.Default()
	f.Fuzz(func(t *testing.T, text string) {
		d, err := netlist.ParseString(text)
		if err != nil {
			return
		}
		msg := func(err error) string {
			if err == nil {
				return "<nil>"
			}
			return err.Error()
		}
		_, err1 := Load(lib, d, DefaultOptions())
		_, err2 := Load(lib, d, DefaultOptions())
		if msg(err1) != msg(err2) {
			t.Fatalf("two loads disagree:\n%s\n%s", msg(err1), msg(err2))
		}
	})
}
