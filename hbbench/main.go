// Command hbbench is the repository benchmark: three workloads that drive
// the analyzer's layers from outside, check that their outputs are
// correct, and print end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the layer → metric → workload
// map and run.sh for how it is built and invoked.
//
//	hbbench -workload whatif_soc -seed 1 -seconds 30 -trace 0 -daemon path/to/hummingbirdd
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is a
// human-readable report (run header, per-class latencies with sample
// counts, error rate, per-layer tables).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	daemon  string // hummingbirdd binary (serve_des)
	tmp     string // scratch directory for the daemon's journal
	commit  string
	workers int // analysis workers (Workers = nproc)
	clients int // serve_des client connections

	// smoke shrinks designs and set-up repetitions so the benchmark's own
	// tests run every workload in seconds.
	smoke bool
	// breakCheck corrupts one expected value per workload so a test can
	// show that a failed output check is counted in error_rate.
	breakCheck bool
	// breakTraced corrupts the digest of every traced cold open so a
	// test can show that traced opens are checked against core.Load's.
	breakTraced bool
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*config, *recorder) error{
	"cold_open_soc": runColdOpen,
	"whatif_soc":    runWhatIf,
	"serve_des":     runServeDES,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hbbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold_open_soc, whatif_soc or serve_des")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same designs and edits")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "hummingbirdd binary built from the commit under test (serve_des)")
	fs.StringVar(&cfg.tmp, "tmp", os.TempDir(), "scratch directory for daemon journals")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit (or source tree hash) under test, for the run header")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()
	cfg.clients = min(2, runtime.NumCPU())
	res, err := run(cfg, w)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and returns the result line; the human
// report goes to w.
func run(cfg *config, w io.Writer) (*result, error) {
	rec, err := measure(cfg)
	if err != nil {
		return nil, err
	}
	printHeader(w, cfg, rec)
	return rec.report(w), nil
}

// measure drives cfg's workload and returns its samples.
func measure(cfg *config) (*recorder, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want cold_open_soc, whatif_soc or serve_des)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	rec := newRecorder(cfg)
	if err := drive(cfg, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rec, nil
}

// printHeader writes the run header every result carries, so a later
// multi-core claim compares like with like.
func printHeader(w io.Writer, cfg *config, rec *recorder) {
	samples := map[string]int{}
	for _, c := range rec.classes {
		samples[c.name] = len(c.untraced) + len(c.traced)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	h := map[string]any{
		"workload":       cfg.workload,
		"mode":           mode,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         cfg.commit,
		"workers":        cfg.workers,
		"clients":        rec.clients,
		"samples":        samples,
		"load":           rec.load,
		"setup_repeats":  len(rec.setups),
		"smoke":          cfg.smoke,
		"timed_run_secs": rec.elapsed.Seconds(),
	}
	b, _ := json.Marshal(h)
	fmt.Fprintf(w, "header %s\n", b)
}

// deadline returns when the timed run should stop.
func (cfg *config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
