package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/journal"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
	"hummingbird/internal/workload"
)

// editsPerReport is the client's class mix: this many edits, then one
// report.
const editsPerReport = 9

// runServeDES drives serve_des: a hummingbirdd built from the commit
// under test, journaling to a scratch directory with -workers nproc, and
// closed-loop clients that each open their own DES session and repeat
// 9 one-instance ±δ edits then 1 report.
func runServeDES(cfg *config, rec *recorder) error {
	if cfg.daemon == "" {
		return errors.New("serve_des needs -daemon, the hummingbirdd binary under test")
	}
	lib := celllib.Default()
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers
	rec.clients = cfg.clients
	rec.load = fmt.Sprintf("closed loop, %d clients, one connection and one DES session each; class mix per client %d edits then 1 report (edit 90%%, report 10%%)",
		cfg.clients, editsPerReport)
	editC, reportC := rec.setClasses("edit", "report")

	var (
		d       *daemon
		text    string
		local   *incremental.Engine
		targets []string
		clients []*desClient
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < cfg.setupRepeats(); i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		err := rec.setup(func() error {
			des, err := workload.DES()
			if err != nil {
				return err
			}
			var b strings.Builder
			if err := netlist.Write(&b, des); err != nil {
				return err
			}
			text = b.String()
			parsed, err := netlist.ParseString(text)
			if err != nil {
				return err
			}
			if local, err = incremental.Open(lib, parsed, opts); err != nil {
				return err
			}
			targets = delayLocal(local)
			if d, err = startDaemon(cfg, i); err != nil {
				return err
			}
			clients = make([]*desClient, cfg.clients)
			for c := range clients {
				if clients[c], err = d.openSession(c, text, cfg.seed); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if cfg.breakCheck {
		clients[0].worst = "corrupted-on-purpose"
	}

	var before, after runStats
	if cfg.trace {
		if err := d.readStats(&before); err != nil {
			return err
		}
	}
	cpu0, err := pidCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	end := rec.startTimed()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *desClient) {
			defer wg.Done()
			c.loop(cfg, rec, targets, editC, reportC, end)
		}(c)
	}
	wg.Wait()
	rec.endTimed()
	cpu1, err := pidCPU(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rec.cpu = cpu1 - cpu0
	if rec.peakRSS, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return err
	}
	if cfg.trace {
		if err := d.readStats(&after); err != nil {
			return err
		}
		rec.serveLayers(before, after, clients, cfg.workers)
		rec.writeJSONLayer(local)
	}

	// End-of-run checks, one goroutine per session: the daemon's summary
	// must match an in-process replay of what the client sent and a
	// replay of the journal the daemon exports.
	for _, c := range clients {
		wg.Add(1)
		go func(c *desClient) {
			defer wg.Done()
			if msg := c.checkFinal(lib, text, opts); msg != "" {
				rec.fail(true, "session %s: %s", c.id, msg)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// daemon is one running hummingbirdd.
type daemon struct {
	cmd        *exec.Cmd
	base, dbg  string // service and pprof base URLs
	journalDir string
	stderr     *bytes.Buffer
	done       chan struct{}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches hummingbirdd and waits for /readyz.
func startDaemon(cfg *config, n int) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.tmp, fmt.Sprintf("hbbench-journal-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d := &daemon{
		base: "http://" + addr, dbg: "http://" + dbg, journalDir: dir,
		stderr: &bytes.Buffer{}, done: make(chan struct{}),
	}
	d.cmd = exec.Command(cfg.daemon, "-addr", addr, "-debug-addr", dbg,
		"-journal-dir", dir, "-workers", strconv.Itoa(cfg.workers))
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	// The daemon must not outlive the benchmark, even if it crashes.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hummingbirdd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("hummingbirdd exited during start-up: %s", d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("hummingbirdd not ready after 30s")
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM, then SIGKILL after
// 10s), waits for it to exit and removes its journal directory.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	return os.RemoveAll(d.journalDir)
}

// desClient is one closed-loop client with its own connection and
// session.
type desClient struct {
	n     int
	http  *http.Client
	base  string
	id    string
	worst string // the session's worst slack at open, as JSON
	rng   *rand.Rand
	order []int

	sent    []incremental.Edit // every acknowledged edit, in order
	edits   int                // edit ops sent
	reports int
	repSize int64
}

// openSession opens client n's DES session.
func (d *daemon) openSession(n int, text string, seed int64) (*desClient, error) {
	c := &desClient{
		n: n, base: d.base,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		rng: rand.New(rand.NewSource(seed*31 + int64(n))),
	}
	body, _ := json.Marshal(map[string]string{"design": text})
	var open struct {
		Session string          `json:"session"`
		OK      bool            `json:"ok"`
		Worst   json.RawMessage `json:"worst_slack"`
	}
	if err := c.do(http.MethodPost, "/v1/sessions", body, "", &open); err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	if !open.OK {
		return nil, errors.New("open session: DES is not timing-clean")
	}
	c.id, c.worst = open.Session, string(open.Worst)
	return c, nil
}

// do sends one request and decodes a JSON response into out (when not
// nil); a non-2xx status is an error.
func (c *desClient) do(method, path string, body []byte, traceID string, out any) error {
	_, raw, err := c.roundTrip(method, path, body, traceID)
	if err != nil {
		return err
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// roundTrip sends one request and reads the whole response; it returns
// the round-trip time.
func (c *desClient) roundTrip(method, path string, body []byte, traceID string) (time.Duration, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if traceID != "" {
		req.Header.Set(span.TraceIDHeader, traceID)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return rt, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return rt, raw, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return rt, raw, nil
}

// loop runs the client's closed loop until end. Cycles of 9 edits and
// 1 report alternate untraced and traced in a traced run.
func (c *desClient) loop(cfg *config, rec *recorder, targets []string, editC, reportC *class, end time.Time) {
	c.order = c.rng.Perm(len(targets))
	var delta clock.Time
	op := func(j int) {
		traceID := ""
		if cfg.trace && (j/(editsPerReport+1))%2 == 1 {
			traceID = fmt.Sprintf("hbbench-%d-%d", c.n, j)
		}
		if j%(editsPerReport+1) == editsPerReport {
			c.report(rec, reportC, traceID)
			return
		}
		// Edits come in ±δ pairs on one instance; the pair's second
		// edit returns the session to its opening state.
		inst := targets[c.order[(c.edits/2)%len(c.order)]]
		sign := clock.Time(1)
		if c.edits%2 == 0 {
			delta = clock.Time(20 + c.rng.Intn(181))
		} else {
			sign = -1
		}
		c.edit(rec, editC, inst, sign*delta, traceID)
	}
	for j := 0; time.Now().Before(end); j++ {
		rec.cal.hold(func() { op(j) })
	}
}

// edit sends one adjust and checks the reply.
func (c *desClient) edit(rec *recorder, cl *class, inst string, delta clock.Time, traceID string) {
	c.edits++
	body := []byte(fmt.Sprintf(`{"edits":[{"op":"adjust","inst":%q,"delta":"%dps"}]}`, inst, int64(delta)))
	rt, raw, err := c.roundTrip(http.MethodPost, "/v1/sessions/"+c.id+"/edits", body, traceID)
	if err != nil {
		rec.fail(false, "edit %s %v: %v", inst, delta, err)
		return
	}
	c.sent = append(c.sent, incremental.Edit{Op: incremental.Adjust, Inst: inst, Delta: delta})
	layers, err := c.layers(traceID, rt, len(raw))
	if err != nil {
		rec.fail(false, "edit %s: %v", inst, err)
		return
	}
	rec.observe(cl, rt, layers)
	var out struct {
		Incremental bool            `json:"incremental"`
		Worst       json.RawMessage `json:"worst_slack"`
	}
	switch err := json.Unmarshal(raw, &out); {
	case err != nil:
		rec.fail(true, "edit %s: decode reply: %v", inst, err)
	case !out.Incremental:
		rec.fail(true, "edit %s: not incremental", inst)
	case delta < 0 && string(out.Worst) != c.worst:
		rec.fail(true, "edit %s: worst slack %s after its pair, %s at open", inst, out.Worst, c.worst)
	}
}

// report fetches the session's full report and checks it is JSON.
func (c *desClient) report(rec *recorder, cl *class, traceID string) {
	rt, raw, err := c.roundTrip(http.MethodGet, "/v1/sessions/"+c.id+"/report", nil, traceID)
	if err != nil {
		rec.fail(false, "report: %v", err)
		return
	}
	c.reports++
	c.repSize += int64(len(raw))
	layers, err := c.layers(traceID, rt, len(raw))
	if err != nil {
		rec.fail(false, "report: %v", err)
		return
	}
	rec.observe(cl, rt, layers)
	if !json.Valid(raw) {
		rec.fail(true, "report: response is not JSON")
	}
}

// layers builds a traced op's layer metrics: the client's round trip with
// the daemon's span tree for the same trace id grafted under it. It
// returns nil for untraced ops, and an error when the daemon's tree
// cannot be fetched, which fails the op.
func (c *desClient) layers(traceID string, rt time.Duration, respBytes int) (map[string]float64, error) {
	if traceID == "" {
		return nil, nil
	}
	var exp span.Export
	if err := c.do(http.MethodGet, "/v1/traces/"+traceID, nil, "", &exp); err != nil {
		return nil, fmt.Errorf("fetch trace %s: %w", traceID, err)
	}
	if exp.Root == nil {
		return nil, fmt.Errorf("trace %s has no spans", traceID)
	}
	m := map[string]float64{"hummingbirdd.resp_bytes": float64(respBytes)}
	rtNode := &span.Node{Name: "client.roundtrip", DurNs: rt.Nanoseconds(), Children: []*span.Node{exp.Root}}
	root := &span.Node{Name: "op", DurNs: rt.Nanoseconds(), Children: []*span.Node{rtNode}}
	return layersOf(root, m), nil
}

// checkFinal compares the session's summary with an in-process replay of
// the edits the client sent and with a replay of the daemon's journal;
// it returns "" when all three agree.
func (c *desClient) checkFinal(lib *celllib.Library, text string, opts core.Options) string {
	var sum struct {
		Hash  string          `json:"state_hash"`
		Worst json.RawMessage `json:"worst_slack"`
	}
	if err := c.do(http.MethodGet, "/v1/sessions/"+c.id, nil, "", &sum); err != nil {
		return fmt.Sprintf("summary: %v", err)
	}
	hash, worst, err := replay(lib, text, opts, [][]incremental.Edit{c.sent})
	if err != nil {
		return fmt.Sprintf("replay of sent edits: %v", err)
	}
	if hash != sum.Hash || worst != string(sum.Worst) {
		return fmt.Sprintf("summary hash %s worst %s; replay of sent edits %s worst %s", sum.Hash, sum.Worst, hash, worst)
	}
	_, raw, err := c.roundTrip(http.MethodGet, "/v1/sessions/"+c.id+"/journal", nil, "")
	if err != nil {
		return fmt.Sprintf("journal export: %v", err)
	}
	jtext, batches, err := parseJournal(raw)
	if err != nil {
		return err.Error()
	}
	hash, worst, err = replay(lib, jtext, opts, batches)
	if err != nil {
		return fmt.Sprintf("journal replay: %v", err)
	}
	if hash != sum.Hash || worst != string(sum.Worst) {
		return fmt.Sprintf("summary hash %s worst %s; journal replay %s worst %s", sum.Hash, sum.Worst, hash, worst)
	}
	return ""
}

// replay opens the design in-process and applies the batches in order,
// returning the state hash and worst slack (as the daemon encodes it).
func replay(lib *celllib.Library, text string, opts core.Options, batches [][]incremental.Edit) (string, string, error) {
	d, err := netlist.ParseString(text)
	if err != nil {
		return "", "", err
	}
	eng, err := incremental.Open(lib, d, opts)
	if err != nil {
		return "", "", err
	}
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		if _, err := eng.Apply(b...); err != nil {
			return "", "", err
		}
	}
	worst, _ := json.Marshal(int64(eng.Report().WorstSlack()))
	return eng.StateHash(), string(worst), nil
}

// parseJournal decodes an exported journal: the open record's design text
// and every edits record (only adjust edits are expected).
func parseJournal(raw []byte) (string, [][]incremental.Edit, error) {
	var text string
	var batches [][]incremental.Edit
	for i, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := journal.ParseFrame(line)
		if err != nil {
			return "", nil, fmt.Errorf("journal frame %d: %w", i, err)
		}
		switch rec.Kind {
		case journal.KindOpen:
			var open struct {
				Design      string            `json:"design"`
				Adjustments map[string]string `json:"adjustments"`
			}
			if err := json.Unmarshal(rec.Body, &open); err != nil {
				return "", nil, fmt.Errorf("journal open record: %w", err)
			}
			if len(open.Adjustments) > 0 {
				return "", nil, errors.New("journal open record carries adjustments; the benchmark sends none")
			}
			text = open.Design
		case journal.KindEdits:
			var edits []struct{ Op, Inst, Delta string }
			if err := json.Unmarshal(rec.Body, &edits); err != nil {
				return "", nil, fmt.Errorf("journal edits record: %w", err)
			}
			batch := make([]incremental.Edit, len(edits))
			for j, e := range edits {
				if e.Op != "adjust" {
					return "", nil, fmt.Errorf("journal edit op %q; the benchmark sends only adjust", e.Op)
				}
				dt, err := netlist.ParseTime(e.Delta)
				if err != nil {
					return "", nil, err
				}
				batch[j] = incremental.Edit{Op: incremental.Adjust, Inst: e.Inst, Delta: dt}
			}
			batches = append(batches, batch)
		}
	}
	if text == "" {
		return "", nil, errors.New("journal has no open record")
	}
	return text, batches, nil
}

// runStats is the daemon state a traced run differences: telemetry
// counters, CPU time and GC counts.
type runStats struct {
	counters telemetry.Metrics
	cpu      time.Duration
	numGC    int64
	pauseNs  []int64 // the runtime's ring of recent GC pauses
}

func (d *daemon) readStats(s *runStats) error {
	resp, err := http.Get(d.base + "/metrics.json")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.counters)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /metrics.json: %w", err)
	}
	if s.cpu, err = pidCPU(d.cmd.Process.Pid); err != nil {
		return err
	}
	resp, err = http.Get(d.dbg + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, l := range strings.Split(string(prof), "\n") {
		if v, ok := strings.CutPrefix(l, "# NumGC = "); ok {
			s.numGC, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(l, "# PauseNs = ["); ok {
			for _, p := range strings.Fields(strings.TrimSuffix(v, "]")) {
				n, _ := strconv.ParseInt(p, 10, 64)
				s.pauseNs = append(s.pauseNs, n)
			}
		}
	}
	return nil
}

// serveLayers turns the daemon's counter, CPU and GC deltas over the
// traced run into run-wide layer metrics.
func (r *recorder) serveLayers(before, after runStats, clients []*desClient, workers int) {
	edits, reports := 0, 0
	var repBytes int64
	for _, c := range clients {
		edits += c.edits
		reports += c.reports
		repBytes += c.repSize
	}
	ops := edits + reports
	r.counterLayers(before.counters, after.counters, ops, edits, edits, workers)
	if ops == 0 {
		return
	}
	r.runWide["hummingbirdd.cpu_ms_per_op"] = float64((after.cpu - before.cpu).Nanoseconds()) / 1e6 / float64(ops)
	if reports > 0 {
		r.runWide["report.bytes"] = float64(repBytes) / float64(reports)
	}
	gcs := after.numGC - before.numGC
	r.runWide["gc.cycles_per_op"] = float64(gcs) / float64(ops)
	r.runWide["gc.pause_ms"] = pauseSum(after.pauseNs, before.numGC, after.numGC) / 1e6 / float64(ops)
}

// pauseSum adds the pauses of GC cycles (from, to] from the runtime's
// 256-entry ring (cycle n sits at index (n+255)%256); when more cycles
// than the ring holds ran, it scales the ring's mean.
func pauseSum(ring []int64, from, to int64) float64 {
	if len(ring) != 256 || to <= from {
		return 0
	}
	n := to - from
	scale := 1.0
	if n > 256 {
		scale, n = float64(n)/256, 256
	}
	sum := 0.0
	for g := to - n + 1; g <= to; g++ {
		sum += float64(ring[(g+255)%256])
	}
	return sum * scale
}

// writeJSONLayer times report.WriteJSON in-process on the DES analysis
// (the daemon's report handler encodes the same structure).
func (r *recorder) writeJSONLayer(eng *incremental.Engine) {
	const reps = 20
	var buf bytes.Buffer
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		report.WriteJSON(&buf, eng.Analyzer(), eng.Report())
	}
	r.runWide["report.write_json_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / reps
}
