// Fleet observability surface tests against fake members: metrics
// federation (merged counters must equal the per-member scrapes and the
// exposition must satisfy the strict validator), the /fleet/status
// one-pager, the /events flight timeline, and cross-process trace
// stitching via /fleet/trace/{id}.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
	"hummingbird/internal/telemetry/span"
)

// fakeMember serves just enough of the daemon surface for the router's
// observability handlers: health, a canned metrics snapshot, and an
// optional retained trace fragment.
type fakeMember struct {
	id      string
	metrics telemetry.Metrics
	trace   *span.Export // served at /v1/traces/{id} when non-nil
}

func (f *fakeMember) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"state": "ready"})
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, f.metrics)
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if f.trace == nil || f.trace.ID != r.PathValue("id") {
			httpError(w, http.StatusNotFound, "not retained")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		f.trace.WriteJSON(w)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func obsRouter(t *testing.T, fakes ...*fakeMember) (*Router, *httptest.Server) {
	t.Helper()
	members := make([]Member, 0, len(fakes))
	for _, f := range fakes {
		members = append(members, Member{ID: f.id, URL: f.serve(t).URL})
	}
	r, err := NewRouter(Config{Members: members, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	return r, front
}

func obsGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestFleetMetricsFederation(t *testing.T) {
	m1 := &fakeMember{id: "r1", metrics: telemetry.Metrics{
		Counters: map[string]int64{"server.requests": 11, "fleet.frames_received": 4},
		Gauges:   map[string]float64{"server.sessions_open": 2},
	}}
	m2 := &fakeMember{id: "r2", metrics: telemetry.Metrics{
		Counters: map[string]int64{"server.requests": 31},
		Gauges:   map[string]float64{"server.sessions_open": 3},
	}}
	_, front := obsRouter(t, m1, m2)

	status, body := obsGet(t, front.URL+"/fleet/metrics")
	if status != http.StatusOK {
		t.Fatalf("fleet metrics: %d", status)
	}
	out := string(body)
	if err := telemetry.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("federated exposition invalid: %v\n%s", err, out)
	}
	// Per-member series survive with replica labels; the rollup is the
	// exact sum of the member scrapes.
	for _, want := range []string{
		`hb_server_requests_total{replica="r1"} 11`,
		`hb_server_requests_total{replica="r2"} 31`,
		"hb_fleet_server_requests_total 42",
		`hb_fleet_frames_received_total{replica="r1"} 4`,
		"hb_fleet_fleet_frames_received_total 4",
		"hb_fleet_server_sessions_open 5",
		"hb_fleet_federated_members 3", // router + 2 members
		"hb_fleet_federated_scrape_errors 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated exposition lacks %q", want)
		}
	}
}

func TestFleetMetricsSkipsDeadMember(t *testing.T) {
	m1 := &fakeMember{id: "r1", metrics: telemetry.Metrics{
		Counters: map[string]int64{"server.requests": 7},
	}}
	m2 := &fakeMember{id: "r2"}
	r, front := obsRouter(t, m1, m2)
	// Take r2 down in the router's view: its scrape must be skipped, not
	// fail the whole federation.
	r.mu.Lock()
	r.members["r2"].up = false
	r.mu.Unlock()

	status, body := obsGet(t, front.URL+"/fleet/metrics")
	if status != http.StatusOK {
		t.Fatalf("fleet metrics with down member: %d", status)
	}
	out := string(body)
	if err := telemetry.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("federated exposition invalid: %v", err)
	}
	if strings.Contains(out, `replica="r2"`) {
		t.Error("down member leaked into the federation")
	}
	if !strings.Contains(out, `hb_server_requests_total{replica="r1"} 7`) {
		t.Error("up member missing from the federation")
	}
}

func TestFleetStatus(t *testing.T) {
	m1 := &fakeMember{id: "r1", metrics: telemetry.Metrics{
		Gauges: map[string]float64{"fleet.stream_lag_hop1": 3, "fleet.stream_lag_hop2": 1},
	}}
	m2 := &fakeMember{id: "r2"}
	r, front := obsRouter(t, m1, m2)
	r.pinSession("r1-1", "design:1", "r1", []string{"r2"})
	r.flight.Record(flight.Warn, "failover.begin", "r1-1", "tr-1", "probing")

	status, body := obsGet(t, front.URL+"/fleet/status")
	if status != http.StatusOK {
		t.Fatalf("fleet status: %d", status)
	}
	var st struct {
		State    string `json:"state"`
		Up       int    `json:"up"`
		Total    int    `json:"total"`
		Sessions int    `json:"sessions"`
		Members  []struct {
			ID       string             `json:"id"`
			Up       bool               `json:"up"`
			Sessions int                `json:"sessions"`
			HopLag   map[string]float64 `json:"hopLag"`
		} `json:"members"`
		Pins   map[string]map[string]any `json:"pins"`
		Events []flight.Event            `json:"events"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status decode: %v\n%s", err, body)
	}
	if st.State != "ready" || st.Up != 2 || st.Total != 2 || st.Sessions != 1 {
		t.Fatalf("status header: %+v", st)
	}
	if len(st.Members) != 2 || st.Members[0].ID != "r1" || st.Members[0].Sessions != 1 {
		t.Fatalf("member rows: %+v", st.Members)
	}
	if st.Members[0].HopLag["hop1"] != 3 || st.Members[0].HopLag["hop2"] != 1 {
		t.Fatalf("hop lag: %+v", st.Members[0].HopLag)
	}
	if st.Pins["r1-1"]["primary"] != "r1" {
		t.Fatalf("pins: %+v", st.Pins)
	}
	if len(st.Events) == 0 || st.Events[len(st.Events)-1].Kind != "failover.begin" {
		t.Fatalf("events tail: %+v", st.Events)
	}
}

func TestFleetEventsEndpoint(t *testing.T) {
	m1 := &fakeMember{id: "r1"}
	r, front := obsRouter(t, m1)
	r.flight.Record(flight.Info, "member.join", "", "", "r9 joined")
	r.flight.Record(flight.Error, "failover.error", "s1", "tr-9", "boom")

	status, body := obsGet(t, front.URL+"/events")
	if status != http.StatusOK {
		t.Fatalf("events: %d", status)
	}
	var got struct {
		Replica string         `json:"replica"`
		Next    int64          `json:"next"`
		Events  []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	if got.Replica != "router" || len(got.Events) != 2 {
		t.Fatalf("events payload: %+v", got)
	}
	// ?since resumes after the cursor the previous response returned.
	status, body = obsGet(t, fmt.Sprintf("%s/events?since=%d", front.URL, got.Next))
	if status != http.StatusOK {
		t.Fatalf("events since: %d", status)
	}
	var empty struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &empty); err != nil || len(empty.Events) != 0 {
		t.Fatalf("resume should be empty: %v %+v", err, empty)
	}
}

func TestFleetTraceStitchesAcrossProcesses(t *testing.T) {
	m1 := &fakeMember{id: "r1"}
	r, front := obsRouter(t, m1)

	// A real router operation leaves a trace in the ring and its id in a
	// flight event — the same discovery path an operator uses. The fake
	// member serves no inventory endpoint, so the reconcile trace exists
	// regardless of what it concluded.
	r.Reconcile()
	events, _ := r.flight.Since(0, "")
	traceID := ""
	for _, ev := range events {
		if ev.Kind == "reconcile.end" {
			traceID = ev.Trace
		}
	}
	if traceID == "" {
		t.Fatalf("no reconcile.end event with a trace id: %+v", events)
	}

	// Give the fake member a fragment for the same trace, hanging off a
	// remote parent, as a daemon that served one traced hop would retain.
	tr := span.New(traceID, "server.repl_adopt")
	tr.SetProcess("r1")
	tr.SetRemoteParent("2")
	tr.Finish()
	m1.trace = tr.Export()

	status, body := obsGet(t, front.URL+"/fleet/trace/"+traceID)
	if status != http.StatusOK {
		t.Fatalf("fleet trace: %d %s", status, body)
	}
	var exp span.Export
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatalf("stitched decode: %v", err)
	}
	procs := map[string]bool{}
	var walk func(n *span.Node)
	walk = func(n *span.Node) {
		if n == nil {
			return
		}
		if n.Process != "" {
			procs[n.Process] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Root)
	if !procs["router"] || !procs["r1"] {
		t.Fatalf("stitched trace spans processes %v, want router and r1", procs)
	}

	// Chrome form: two distinct pids and a metadata name per process.
	status, body = obsGet(t, front.URL+"/fleet/trace/"+traceID+"?format=chrome")
	if status != http.StatusOK {
		t.Fatalf("chrome trace: %d", status)
	}
	var evs []map[string]any
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("chrome decode: %v", err)
	}
	pids := map[float64]bool{}
	for _, ev := range evs {
		pids[ev["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("chrome trace has %d pid(s), want 2", len(pids))
	}

	if status, _ := obsGet(t, front.URL+"/fleet/trace/absent-id"); status != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d, want 404", status)
	}
	if status, _ := obsGet(t, front.URL+"/fleet/trace/bad%20id"); status != http.StatusBadRequest {
		t.Fatalf("invalid trace id: %d, want 400", status)
	}
}

// TestFailoverOperationTraced drives a failover against fake members
// far enough to fail (no standby holds the session) and checks the
// operation still leaves a finished trace with probe spans and error
// flight events — the observability contract when things go wrong.
func TestFailoverOperationTraced(t *testing.T) {
	m1 := &fakeMember{id: "r1"}
	m2 := &fakeMember{id: "r2"}
	r, _ := obsRouter(t, m1, m2)
	r.pinSession("r1-1", "design:1", "r1", []string{"r2"})
	r.mu.Lock()
	rt := r.sessions["r1-1"]
	r.members["r1"].up = false
	r.mu.Unlock()

	if _, err := r.move(rt, "r1", "failover"); err == nil {
		t.Fatal("failover against a fake with no standby should fail")
	}
	events, _ := r.flight.Since(0, "r1-1")
	kinds := map[string]string{}
	for _, ev := range events {
		kinds[ev.Kind] = ev.Trace
	}
	if kinds["failover.begin"] == "" || kinds["failover.error"] == "" {
		t.Fatalf("failover events missing trace ids: %v", kinds)
	}
	if kinds["failover.begin"] != kinds["failover.error"] {
		t.Fatalf("begin/error trace ids differ: %v", kinds)
	}
	tr := r.traces.Get(kinds["failover.begin"])
	if tr == nil {
		t.Fatal("failover trace not retained in the ring")
	}
	exp := tr.Export()
	names := map[string]int{}
	var walk func(n *span.Node)
	walk = func(n *span.Node) {
		names[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Root)
	if names["fleet.failover"] != 1 || names["probe"] == 0 {
		t.Fatalf("failover trace shape: %v", names)
	}
	if exp.Root.Attrs["session"] != "r1-1" || exp.Root.Attrs["error"] == "" {
		t.Fatalf("failover root attrs: %v", exp.Root.Attrs)
	}
}
