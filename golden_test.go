package hummingbird

// Golden front-end outputs: digests of the elaborated network and of the
// Algorithm 1 and 2 results for the Table-1 designs and two small SoCs,
// recorded from the string-keyed front end the dense net index replaced.
// Any change to net numbering, cluster membership, arc order or evaluated
// delays shows up here as a digest mismatch.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"testing"

	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/sta"
	"hummingbird/internal/workload"
)

const goldenFrontEndFile = "testdata/frontend_golden.json"

// frontEndGolden is one design's recorded outputs.
type frontEndGolden struct {
	Stats    netlist.Stats `json:"stats"`
	Nets     string        `json:"nets"`     // CompiledDesign.Nets
	Clusters string        `json:"clusters"` // per-cluster Nets, Order and Arcs
	Report   string        `json:"report"`   // Algorithm 1 verdict and slacks
	Cons     string        `json:"cons"`     // Algorithm 2 ready/required times
}

func frontEndDesigns() map[string]func() (*netlist.Design, error) {
	soc := func(seed int64) func() (*netlist.Design, error) {
		return func() (*netlist.Design, error) { return workload.SoCCells(2000, seed) }
	}
	return map[string]func() (*netlist.Design, error){
		"DES":        workload.DES,
		"ALU":        workload.ALU,
		"SM1F":       infallible(workload.SM1F),
		"SM1H":       infallible(workload.SM1H),
		"SoC2000-s1": soc(1),
		"SoC2000-s2": soc(2),
	}
}

// frontEndDigests loads and analyzes every golden design.
func frontEndDigests(t *testing.T) map[string]frontEndGolden {
	t.Helper()
	out := map[string]frontEndGolden{}
	for name, mk := range frontEndDesigns() {
		d, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := core.Load(benchLib, d, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatalf("%s: algorithm 1: %v", name, err)
		}
		cons, err := a.GenerateConstraints()
		if err != nil {
			t.Fatalf("%s: algorithm 2: %v", name, err)
		}

		nets := newDigester()
		nets.strs(a.CD.Nets)
		cls := newDigester()
		for _, cl := range a.CD.Clusters {
			cls.u64(uint64(cl.ID))
			cls.ints(cl.Nets)
			cls.ints(cl.Order)
			cls.u64(uint64(len(cl.Arcs)))
			for _, arc := range cl.Arcs {
				cls.strs([]string{arc.Inst, arc.FromPin, arc.ToPin})
				cls.ints([]int{arc.From, arc.To, int(arc.Sense)})
				cls.times([]clock.Time{arc.D.MaxRise, arc.D.MaxFall, arc.D.MinRise, arc.D.MinFall})
			}
		}
		rd := newDigester()
		if rep.OK {
			rd.u64(1)
		} else {
			rd.u64(0)
		}
		for _, v := range [][]clock.Time{rep.Result.InSlack, rep.Result.OutSlack, rep.Result.NetSlack} {
			rd.times(v)
		}
		cd := newDigester()
		for _, set := range [][]sta.PassDetail{cons.Ready, cons.Required} {
			cd.u64(uint64(len(set)))
			for _, p := range set {
				cd.u64(uint64(p.Cluster)<<32 | uint64(p.Pass))
				cd.u64(uint64(p.Beta))
				for _, v := range [][]clock.Time{p.ReadyR, p.ReadyF, p.ReqR, p.ReqF} {
					cd.times(v)
				}
			}
		}
		out[name] = frontEndGolden{
			Stats: d.Stats(benchLib), Nets: nets.sum(), Clusters: cls.sum(),
			Report: rd.sum(), Cons: cd.sum(),
		}
	}
	return out
}

// TestFrontEndGolden holds the front end to its recorded outputs, byte for
// byte.
func TestFrontEndGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFrontEndFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]frontEndGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := frontEndDigests(t)
	if len(got) != len(want) {
		t.Fatalf("golden file has %d designs, test covers %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in %s", name, goldenFrontEndFile)
		} else if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

// digester streams little-endian words and length-prefixed strings into
// SHA-256, the way the benchmark's cold-open check hashes results.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) { d.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (d *digester) times(ts []clock.Time) {
	d.u64(uint64(len(ts)))
	for _, t := range ts {
		d.u64(uint64(t))
	}
}

func (d *digester) ints(vs []int) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digester) strs(ss []string) {
	d.u64(uint64(len(ss)))
	for _, s := range ss {
		d.u64(uint64(len(s)))
		d.h.Write([]byte(s))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
