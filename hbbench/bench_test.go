package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests run every workload in smoke mode (small designs, one set-up,
// one-second runs): a check of the benchmark's plumbing, not a
// measurement.

// daemonBin is a hummingbirdd built from the module under test for the
// serve_des tests; empty when it could not be built.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hbbench-test")
	if err != nil {
		panic(err)
	}
	bin := filepath.Join(dir, "hummingbirdd")
	if out, err := exec.Command("go", "build", "-o", bin, "hummingbird/cmd/hummingbirdd").CombinedOutput(); err == nil {
		daemonBin = bin
	} else {
		os.Stderr.Write(out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	if workload == "serve_des" && daemonBin == "" {
		t.Skip("hummingbirdd did not build")
	}
	return &config{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		daemon: daemonBin, tmp: t.TempDir(), commit: "test",
		workers: runtime.NumCPU(), clients: min(2, runtime.NumCPU()), smoke: true,
	}
}

var allWorkloads = []string{"cold_open_soc", "whatif_soc", "serve_des"}

// classNames are the per-class latency names the human report prints.
var classNames = map[string][]string{
	"cold_open_soc": {"open", "preprocess"},
	"whatif_soc":    {"edit", "batch"},
	"serve_des":     {"edit", "report"},
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	endToEnd := map[string]string{"setup_s": "s", "peak_rss_mb": "MB", "cpu_ms_per_op": "ms",
		"primary_p50_ms": "ms", "secondary_p50_ms": "ms"}
	perLayer := map[string]string{}
	for _, m := range layerMetrics {
		perLayer[m.name] = m.unit
	}
	for _, wl := range allWorkloads {
		for _, trace := range []bool{false, true} {
			t.Run(wl+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(smokeConfig(t, wl, trace), &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				text := out.String()
				for _, line := range []string{"header {", "metric error_rate"} {
					if !strings.Contains(text, line) {
						t.Errorf("report lacks %q", line)
					}
				}
				if !trace {
					if !strings.Contains(text, "metric ops_per_s") {
						t.Error("report lacks ops_per_s")
					}
					for _, c := range classNames[wl] {
						for _, p := range []string{"_p50_ms", "_p90_ms"} {
							if !strings.Contains(text, "metric "+c+p) || !strings.Contains(text, "samples=") {
								t.Errorf("report lacks %s%s with its sample count", c, p)
							}
						}
					}
				}
			})
		}
	}
}

func TestFailedCheckRaisesErrorRate(t *testing.T) {
	for _, wl := range allWorkloads {
		t.Run(wl, func(t *testing.T) {
			cfg := smokeConfig(t, wl, false)
			cfg.breakCheck = true
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a corrupted expected value went unnoticed: correct=%v failed=%d attempted=%d",
					res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestTracedLayersAddUpToOpTime(t *testing.T) {
	self := selfLayers()
	for _, wl := range allWorkloads {
		t.Run(wl, func(t *testing.T) {
			rec, err := measure(smokeConfig(t, wl, true))
			if err != nil {
				t.Fatal(err)
			}
			ops := 0
			for _, c := range rec.classes {
				for i, m := range c.layers {
					ops++
					sum := 0.0
					for _, l := range self {
						sum += m[l]
					}
					if wall := m["op.wall_ms"]; math.Abs(sum-wall) > 1e-6*math.Max(1, wall) {
						t.Errorf("%s op %d: layer self times add to %.6f ms, op took %.6f ms", c.name, i, sum, wall)
					}
					if m["op.wall_ms"] != c.traced[i] {
						t.Errorf("%s op %d: op.wall_ms %.6f is not the recorded latency %.6f", c.name, i, m["op.wall_ms"], c.traced[i])
					}
				}
			}
			if ops == 0 {
				t.Fatal("no traced ops")
			}
			if wl == "serve_des" {
				// Every traced op must carry the daemon's grafted tree,
				// and the edits its journal fsyncs.
				fsync := 0.0
				for _, c := range rec.classes {
					for i, m := range c.layers {
						if m["hummingbirdd.server_ms"] <= 0 {
							t.Errorf("%s op %d: no daemon span tree grafted", c.name, i)
						}
						if c.name == "edit" {
							fsync += m["journal.fsync_ms"]
						}
					}
				}
				if fsync <= 0 {
					t.Error("traced edits show no journal.fsync time")
				}
			}
		})
	}
}

// TestTracedOpensCheckedAgainstLoad shows that traced cold opens, which
// call the front-end functions one by one, are held to the digests of
// core.Load: corrupting the traced opens' digest fails each of them, and
// only them.
func TestTracedOpensCheckedAgainstLoad(t *testing.T) {
	cfg := smokeConfig(t, "cold_open_soc", true)
	cfg.breakTraced = true
	rec, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := len(rec.classes[0].traced)
	if traced == 0 || len(rec.classes[0].untraced) == 0 {
		t.Fatalf("need traced and untraced opens, got %d and %d", traced, len(rec.classes[0].untraced))
	}
	if rec.failed != traced {
		t.Fatalf("%d failed ops, want the %d traced opens: %v", rec.failed, traced, rec.failures)
	}
}

// TestSpanLayerNamesAreMetrics keeps the span map and the metric list in
// step.
func TestSpanLayerNamesAreMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	for _, l := range append(selfLayers(), "hummingbirdd.server_ms", "incremental.apply_ms", "client.roundtrip_ms") {
		if !known[l] {
			t.Errorf("layer %s is not in layerMetrics", l)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := percentile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json in step with the
// metrics and workloads the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, allWorkloads)
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if doc.PerLayer[i] != (entry{m.name, m.unit}) {
			t.Errorf("per_layer[%d] = %v, want %s %s", i, doc.PerLayer[i], m.name, m.unit)
		}
	}
	res, err := run(smokeConfig(t, "cold_open_soc", false), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(res.Metrics))
	}
	for _, e := range doc.EndToEnd {
		if m, ok := res.Metrics[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("end-to-end %s %s not printed with that unit", e.Name, e.Unit)
		}
	}
}

// TestRefKernelAllocatesNothing keeps the calibration kernel off the
// garbage collector, so its time does not depend on the size of the
// program's heap.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	defer syscall.Munmap(k.mem)
	if n := testing.AllocsPerRun(3, k.run); n != 0 {
		t.Fatalf("refKernel.run allocates %v times per run", n)
	}
}

// TestCalibratorPausesOps checks that the kernel cannot take the gate
// while an op holds it, and that it runs between ops.
func TestCalibratorPausesOps(t *testing.T) {
	c := newCalibrator()
	c.start()
	end := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(end) {
		c.hold(func() {
			if c.gate.TryLock() {
				t.Error("the kernel's side of the gate is free during an op")
				c.gate.Unlock()
			}
			time.Sleep(5 * time.Millisecond)
		})
	}
	c.finish()
	if c.runs() == 0 {
		t.Error("the kernel never ran between ops")
	}
}
