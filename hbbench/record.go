package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"hummingbird/internal/telemetry"
)

// class is one operation class of a workload ("open", "edit", ...); each
// workload has two.
type class struct {
	name     string
	untraced []float64 // op latencies in ms, tracing off
	traced   []float64 // op latencies in ms, traced ops
	layers   []map[string]float64
}

// addSample records one latency. cold_open_soc also calls it directly
// for preprocess, which is timed inside each open and adds no attempted
// op of its own.
func (c *class) addSample(d time.Duration, traced bool) {
	ms := float64(d.Nanoseconds()) / 1e6
	if traced {
		c.traced = append(c.traced, ms)
		return
	}
	c.untraced = append(c.untraced, ms)
}

// recorder collects one run's samples. Its methods are safe for
// concurrent use by the serve_des client goroutines.
type recorder struct {
	cfg *config

	mu        sync.Mutex
	classes   []*class
	setups    []time.Duration
	attempted int
	failed    int
	completed int
	failures  []string

	cal     *calibrator
	start   time.Time
	elapsed time.Duration      // length of the timed run
	cpu     time.Duration      // CPU time the process doing the work used in it
	peakRSS float64            // MB, VmHWM of the process doing the work
	runWide map[string]float64 // per-layer metrics measured over the whole traced run
	clients int
	load    string // load shape, for the run header
}

func newRecorder(cfg *config) *recorder {
	return &recorder{cfg: cfg, cal: newCalibrator(), runWide: map[string]float64{}, clients: 1}
}

// startTimed starts the timed run and the calibrator, and returns when
// the run should stop. Each op of the run goes through r.cal.hold.
func (r *recorder) startTimed() time.Time {
	r.cal.start()
	r.start = time.Now()
	return r.cfg.deadline(r.start)
}

// endTimed ends the timed run.
func (r *recorder) endTimed() {
	r.elapsed = time.Since(r.start)
	r.cal.finish()
}

// setClasses names the workload's two op classes.
func (r *recorder) setClasses(first, second string) (*class, *class) {
	r.classes = []*class{{name: first}, {name: second}}
	return r.classes[0], r.classes[1]
}

// observe records one completed op. layers is nil for untraced ops.
func (r *recorder) observe(c *class, d time.Duration, layers map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.completed++
	c.addSample(d, layers != nil)
	if layers != nil {
		c.layers = append(c.layers, layers)
	}
}

// fail counts a failed op: a transport error, a non-2xx response or a
// failed output check. counted is true when the op was already recorded
// by observe (its output check failed afterwards).
func (r *recorder) fail(counted bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !counted {
		r.attempted++
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setup times one repetition of the workload's set-up.
func (r *recorder) setup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0))
	return nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
func (cfg *config) setupRepeats() int {
	if cfg.smoke {
		return 1
	}
	return 5
}

// report prints the human-readable section and returns the result line.
func (r *recorder) report(w io.Writer) *result {
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(w, "metric %-34s %14.4f %-6s %s\n", name, v, unit, note)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	line("error_rate", errRate, "ratio", fmt.Sprintf("failed=%d attempted=%d", r.failed, r.attempted))
	if !r.cfg.trace {
		line("ops_per_s", float64(r.completed)/(r.elapsed-r.cal.wallUsed()).Seconds(), "ops/s", "")
		for _, c := range r.classes {
			n := fmt.Sprintf("samples=%d", len(c.untraced))
			line(c.name+"_p50_ms", percentile(c.untraced, 0.50), "ms", n)
			line(c.name+"_p90_ms", percentile(c.untraced, 0.90), "ms", n)
			fmt.Fprintf(w, "dist %s ms:", c.name)
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				fmt.Fprintf(w, " p%g=%.3f", q*100, percentile(c.untraced, q))
			}
			fmt.Fprintln(w)
		}
		// The result line carries the metrics at the calibrated host
		// speed (see calib.go and README.md): wall times scaled by the
		// kernel's wall time in the same run, CPU times by its CPU time.
		ws, cs := r.cal.wallScale(), r.cal.cpuScale()
		fmt.Fprintf(w, "calib kernel_runs=%d wall_scale=%.4f cpu_scale=%.4f (nominal kernel %v)\n", r.cal.runs(), ws, cs, refNominal)
		cpuPerOp := float64(r.cpu.Nanoseconds()) / 1e6 / float64(max(r.completed, 1))
		line("cpu_ms_per_op_raw", cpuPerOp, "ms", "before calibration")
		res.Metrics["setup_s"] = metric{median(durationsSeconds(r.setups)) * ws, "s"}
		res.Metrics["primary_p50_ms"] = metric{percentile(r.classes[0].untraced, 0.50) * ws, "ms"}
		res.Metrics["secondary_p50_ms"] = metric{percentile(r.classes[1].untraced, 0.50) * ws, "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{cpuPerOp * cs, "ms"}
		res.Metrics["peak_rss_mb"] = metric{r.peakRSS, "MB"}
		notes := map[string]string{"setup_s": fmt.Sprintf("repeats=%d raw_median=%.4f", len(r.setups), median(durationsSeconds(r.setups)))}
		for i, pos := range []string{"primary", "secondary"} {
			c := r.classes[i]
			notes[pos+"_p50_ms"] = fmt.Sprintf("class=%s samples=%d", c.name, len(c.untraced))
		}
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			line(name, m.Value, m.Unit, notes[name])
		}
		return res
	}
	r.perLayer(w, res)
	return res
}

// perLayer fills the traced run's metrics: per-op means over every traced
// op (classes mixed in the workload's fixed ratio) plus the run-wide
// values, and prints per-class means and p50s.
func (r *recorder) perLayer(w io.Writer, res *result) {
	var all []map[string]float64
	overhead, weight := 0.0, 0.0
	for _, c := range r.classes {
		all = append(all, c.layers...)
		if len(c.layers) > 0 && len(c.untraced) > 0 {
			pct := (percentile(c.traced, 0.5)/percentile(c.untraced, 0.5) - 1) * 100
			fmt.Fprintf(w, "layer %-8s %-34s %14.4f %%  (traced p50 %.4f ms n=%d, untraced p50 %.4f ms n=%d)\n",
				c.name, "trace_overhead_pct", pct, percentile(c.traced, 0.5), len(c.traced),
				percentile(c.untraced, 0.5), len(c.untraced))
			overhead += pct * float64(len(c.traced))
			weight += float64(len(c.traced))
		}
		for _, m := range layerMetrics {
			if _, runWide := r.runWide[m.name]; runWide || !m.perOp || len(c.layers) == 0 {
				continue
			}
			vals := column(c.layers, m.name)
			fmt.Fprintf(w, "layer %-8s %-34s mean %12.4f  p50 %12.4f %s\n",
				c.name, m.name, mean(vals), percentile(vals, 0.5), m.unit)
		}
	}
	if weight > 0 {
		r.runWide["trace_overhead_pct"] = overhead / weight
	}
	for _, m := range layerMetrics {
		v, runWide := r.runWide[m.name]
		if !runWide && m.perOp {
			v = mean(column(all, m.name))
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", m.name, v, m.unit)
	}
}

// layerMetric is one per-layer metric of the traced run. perOp metrics
// are measured on every traced op and averaged; the others are
// measured over the whole run (counter deltas, ratios, CPU). A value a
// workload measures over the whole run (runWide) overrides the per-op
// mean: serve_des reads the daemon's GC counts that way.
type layerMetric struct {
	name, unit string
	perOp      bool
}

// layerMetrics lists every per-layer metric in output order. Keep it in
// step with BENCHMARK.json and README.md.
var layerMetrics = []layerMetric{
	{"netlist.parse_ms", "ms", true},
	{"netlist.validate_ms", "ms", true},
	{"netlist.parse_allocs", "count", true},
	{"netlist.validate_allocs", "count", true},
	{"delaycalc.new_ms", "ms", true},
	{"delaycalc.new_allocs", "count", true},
	{"delaycalc.evaluations", "count", false},
	{"cluster.build_ms", "ms", true},
	{"cluster.compile_ms", "ms", true},
	{"cluster.build_allocs", "count", true},
	{"cluster.compile_allocs", "count", true},
	{"sta.analyze_ms", "ms", true},
	{"sta.recompute_ms", "ms", true},
	{"sta.clusters_analyzed", "count", false},
	{"sta.steals", "count", false},
	{"sta.worker_utilisation", "ratio", false},
	{"core.alg1_ms", "ms", true},
	{"core.sweep_ms", "ms", true},
	{"core.alg2_ms", "ms", true},
	{"core.sweeps", "count", false},
	{"core.offsets_moved", "count", false},
	{"core.incremental_clusters", "count", false},
	{"core.incremental_clusters_skipped", "count", false},
	{"incremental.apply_ms", "ms", true},
	{"incr.classify_ms", "ms", true},
	{"incremental.unattributed_ms", "ms", true},
	{"incr.dirty_clusters", "count", false},
	{"incremental.hit_ratio", "ratio", false},
	{"incremental.recompute_ratio", "ratio", false},
	{"incremental.apply_allocs", "count", true},
	{"report.write_json_ms", "ms", false},
	{"report.bytes", "bytes", false},
	{"journal.append_ms", "ms", true},
	{"journal.fsync_ms", "ms", true},
	{"journal.syncs_per_edit", "ratio", false},
	{"hummingbirdd.server_ms", "ms", true},
	{"hummingbirdd.admission_ms", "ms", true},
	{"hummingbirdd.encode_ms", "ms", true},
	{"hummingbirdd.unattributed_ms", "ms", true},
	{"hummingbirdd.cpu_ms_per_op", "ms", false},
	{"hummingbirdd.resp_bytes", "bytes", true},
	{"client.roundtrip_ms", "ms", true},
	{"wire_ms", "ms", true},
	{"op.wall_ms", "ms", true},
	{"op.unattributed_ms", "ms", true},
	{"gc.cycles_per_op", "count", true},
	{"gc.pause_ms", "ms", true},
	{"trace_overhead_pct", "%", false},
}

// runCounters are the telemetry counters the traced run turns into
// per-op layer metrics.
var runCounters = []string{
	"delaycalc.evaluations", "sta.clusters_analyzed", "sta.steals",
	"core.sweeps", "core.offsets_moved", "core.incremental_clusters",
	"core.incremental_clusters_skipped", "incr.dirty_clusters",
}

// counterLayers turns counter deltas over a traced run into run-wide
// layer metrics: per-op counts over ops, and the ratios README.md defines.
// applies is the number of incremental applies among the ops, edits the
// number of journaled edits (0 when nothing is journaled).
func (r *recorder) counterLayers(before, after telemetry.Metrics, ops, applies, edits, workers int) {
	d := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	if ops == 0 {
		return
	}
	for _, name := range runCounters {
		r.runWide[name] = d(name) / float64(ops)
	}
	if wall := d("sta.parallel_wall_ns"); wall > 0 {
		r.runWide["sta.worker_utilisation"] = d("sta.parallel_worker_busy_ns") / (wall * float64(workers))
	}
	if applies > 0 {
		r.runWide["incremental.hit_ratio"] = d("incr.incremental_analyses") / float64(applies)
	}
	if n := d("sta.clusters_analyzed"); n > 0 && applies > 0 {
		r.runWide["incremental.recompute_ratio"] = d("incr.dirty_clusters") / n
	}
	if edits > 0 {
		r.runWide["journal.syncs_per_edit"] = d("journal.syncs") / float64(edits)
	}
}

func column(rows []map[string]float64, name string) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = row[name]
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// selfPeakRSSMB is the benchmark process's peak RSS without the
// calibration kernel's data, which stays resident from before the set-up
// to the end of the timed run.
func selfPeakRSSMB() (float64, error) {
	mb, err := peakRSSMB("self")
	return mb - refKernelBytes/(1<<20), err
}

// peakRSSMB reads VmHWM of a process ("self" or a pid) from procfs.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
