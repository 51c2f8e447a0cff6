// Fleet failover tests: real hummingbirdd subprocesses (via the
// proc_test.go harness) behind an in-process fleet router. These run
// untagged — and therefore under `go test -race ./...` — because the
// failure they inject is process death, not a failpoint: SIGKILL a
// replica while a fleet of sessions is live and check the displaced
// sessions re-home onto their journal-stream peer with no state loss,
// while sessions on the survivor never see a 5xx.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hummingbird/internal/fleet"
)

// fleetFront wires an in-process router over the given daemons and
// serves it on an httptest listener.
func fleetFront(t *testing.T, members []fleet.Member) (*fleet.Router, *httptest.Server) {
	t.Helper()
	router, err := fleet.NewRouter(fleet.Config{
		Members:        members,
		HealthInterval: 100 * time.Millisecond,
		FailAfter:      2,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	return router, front
}

// fleetDo issues one request against the router frontend and returns the
// status, headers and raw body.
func fleetDo(t *testing.T, method, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// fleetJSON is fleetDo with the body decoded as a JSON object.
func fleetJSON(t *testing.T, method, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	status, hdr, raw := fleetDo(t, method, url, body)
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return status, hdr, m
}

func adjustEdit(inst string, delta string) map[string]any {
	return map[string]any{
		"edits": []map[string]any{{"op": "adjust", "inst": inst, "delta": delta}},
	}
}

// fleetSession is one session opened through the router.
type fleetSession struct {
	id      string
	replica string
	design  string
}

// openFleetSessions opens sessions with distinct designs until both
// replicas hold at least `want` each (distinct design → distinct ring
// key, so placement spreads).
func openFleetSessions(t *testing.T, frontURL string, want int) []fleetSession {
	t.Helper()
	var out []fleetSession
	byReplica := map[string]int{}
	for k := 5; k < 64; k++ {
		if byReplica["r1"] >= want && byReplica["r2"] >= want {
			break
		}
		design := chainSrc(k)
		status, hdr, m := fleetJSON(t, "POST", frontURL+"/v1/sessions", map[string]any{"design": design})
		if status != http.StatusCreated {
			t.Fatalf("open chain(%d): %d %v", k, status, m)
		}
		replica := hdr.Get("X-Hb-Replica")
		if replica == "" {
			t.Fatal("open response lacks X-Hb-Replica")
		}
		out = append(out, fleetSession{id: m["session"].(string), replica: replica, design: design})
		byReplica[replica]++
	}
	if byReplica["r1"] < want || byReplica["r2"] < want {
		t.Fatalf("placement never spread: %v", byReplica)
	}
	return out
}

// TestFleetFailoverServesDisplacedSessions is the fleet acceptance
// chaos test: SIGKILL one replica while its sessions have live edits in
// flight, then check (a) the displaced session's next request is served
// by the journal-stream peer under the same session id, (b) the peer's
// slack report is bit-identical to a fresh single daemon replaying a
// copy of the same journal, and (c) sessions pinned to the survivor
// never saw a 5xx.
func TestFleetFailoverServesDisplacedSessions(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	sessions := openFleetSessions(t, front.URL, 2)

	// Same design must land on the same replica (that is the point of
	// hashing on the design: a shared compile).
	first := sessions[0]
	if status, hdr, _ := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": first.design}); status != http.StatusCreated {
		t.Fatalf("duplicate-design open: %d", status)
	} else if got := hdr.Get("X-Hb-Replica"); got != first.replica {
		t.Fatalf("same design split across replicas: %s vs %s", got, first.replica)
	}

	// One acked edit per session, so every journal has frames to stream.
	for _, s := range sessions {
		status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "100ps"))
		if status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
	}
	var victims, bystanders []fleetSession
	for _, s := range sessions {
		if s.replica == "r1" {
			victims = append(victims, s)
		} else {
			bystanders = append(bystanders, s)
		}
	}

	// Hammer the survivor's sessions for the whole kill window; any 5xx
	// on a non-displaced session fails the test.
	var server5xx atomic.Int64
	stopHammer := make(chan struct{})
	var hammerWG sync.WaitGroup
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stopHammer:
				return
			default:
			}
			s := bystanders[i%len(bystanders)]
			resp, err := client.Get(front.URL + "/v1/sessions/" + s.id)
			if err != nil {
				continue // router gone would fail elsewhere
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				server5xx.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// SIGKILL r1 while an edit batch races toward it. The batch may have
	// been acked (200) or died with the replica — then the router answers
	// 409 (retry the batch) because blind replay could double-apply. It
	// must never surface a 5xx.
	victim := victims[0]
	inflight := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(adjustEdit("g2", "50ps"))
		resp, err := http.Post(front.URL+"/v1/sessions/"+victim.id+"/edits", "application/json", bytes.NewReader(b))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	time.Sleep(2 * time.Millisecond)
	d1.kill9(t)
	inflightStatus := <-inflight
	if inflightStatus >= 500 {
		t.Errorf("in-flight edit during kill answered %d; want 2xx or 409", inflightStatus)
	}

	// The displaced session's next request must succeed, served by the
	// peer under the same id.
	status, hdr, m := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+victim.id, nil)
	if status != http.StatusOK {
		t.Fatalf("displaced session next request: %d %v", status, m)
	}
	if got := hdr.Get("X-Hb-Replica"); got != "r2" {
		t.Fatalf("displaced session served by %q, want r2", got)
	}
	if m["session"] != victim.id {
		t.Fatalf("displaced session identity changed: %v", m)
	}

	// Every other displaced session re-homes too.
	for _, s := range victims[1:] {
		if status, _, m := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+s.id, nil); status != http.StatusOK {
			t.Fatalf("displaced session %s: %d %v", s.id, status, m)
		}
	}

	// Bit-identical replay check: the adopted session's slack report on
	// the peer must equal a fresh standalone daemon's report after
	// replaying a copy of the same journal.
	status, _, adopted := fleetDoReport(t, front.URL, victim.id)
	if status != http.StatusOK {
		t.Fatalf("adopted report: %d", status)
	}
	exStatus, _, journalBytes := fleetDo(t, "GET", d2.base+"/v1/sessions/"+victim.id+"/journal", nil)
	if exStatus != http.StatusOK {
		t.Fatalf("journal export from peer: %d", exStatus)
	}
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, victim.id+".journal"), journalBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := startDaemon(t, "-journal-dir", dir3)
	refStatus, _, reference := fleetDoReport(t, d3.base, victim.id)
	if refStatus != http.StatusOK {
		t.Fatalf("reference replay report: %d", refStatus)
	}
	if !bytes.Equal(adopted, reference) {
		t.Fatalf("adopted report differs from single-replica replay of the same journal:\nadopted:   %s\nreference: %s",
			truncForLog(adopted), truncForLog(reference))
	}

	// The adopted session keeps taking edits.
	if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+victim.id+"/edits", adjustEdit("g0", "25ps")); status != http.StatusOK {
		t.Fatalf("edit after failover: %d %v", status, m)
	}

	close(stopHammer)
	hammerWG.Wait()
	if n := server5xx.Load(); n > 0 {
		t.Fatalf("%d request(s) on non-displaced sessions got a 5xx during failover", n)
	}
}

// fleetDoReport fetches the raw slack report bytes for a session.
func fleetDoReport(t *testing.T, base, id string) (int, http.Header, []byte) {
	t.Helper()
	return fleetDo(t, "GET", base+"/v1/sessions/"+id+"/report", nil)
}

func truncForLog(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}

// TestFleetDrainMigratesSessions rolls one replica via the router's
// drain endpoint and checks its sessions re-home onto the peer with
// state intact, then return to service after undrain (new placements
// only — migrated sessions stay where they are).
func TestFleetDrainMigratesSessions(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	sessions := openFleetSessions(t, front.URL, 1)
	hashes := map[string]any{}
	for _, s := range sessions {
		status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "75ps"))
		if status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
		status, _, sum := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("summary %s: %d", s.id, status)
		}
		hashes[s.id] = sum["state_hash"]
	}

	status, _, m := fleetJSON(t, "POST", front.URL+"/fleet/drain/r1", nil)
	if status != http.StatusOK {
		t.Fatalf("drain r1: %d %v", status, m)
	}

	// Every session — including the ones that lived on r1 — must answer
	// from r2 with an unchanged state hash.
	for _, s := range sessions {
		status, hdr, sum := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("post-drain summary %s: %d %v", s.id, status, sum)
		}
		if got := hdr.Get("X-Hb-Replica"); got != "r2" {
			t.Fatalf("session %s served by %q after drain, want r2", s.id, got)
		}
		if sum["state_hash"] != hashes[s.id] {
			t.Fatalf("session %s state changed across migration: %v != %v", s.id, sum["state_hash"], hashes[s.id])
		}
	}

	// Undrain and verify new sessions may land on r1 again.
	if status, _, m := fleetJSON(t, "POST", front.URL+"/fleet/undrain/r1", nil); status != http.StatusOK {
		t.Fatalf("undrain r1: %d %v", status, m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, rdy := fleetJSON(t, "GET", front.URL+"/readyz", nil)
		members, _ := rdy["members"].(map[string]any)
		r1, _ := members["r1"].(map[string]any)
		if status == http.StatusOK && r1 != nil && r1["up"] == true && r1["state"] == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("r1 never became routable again: %d %v", status, rdy)
		}
		time.Sleep(50 * time.Millisecond)
	}
	saw := map[string]bool{}
	for k := 100; k < 140 && !(saw["r1"] && saw["r2"]); k++ {
		status, hdr, m := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": chainSrc(k)})
		if status != http.StatusCreated {
			t.Fatalf("post-undrain open: %d %v", status, m)
		}
		saw[hdr.Get("X-Hb-Replica")] = true
	}
	if !saw["r1"] {
		t.Fatal("no new session landed on r1 after undrain")
	}

	// One sanity edit per migrated session: the streams re-attached on
	// the new primary keep accepting work.
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g0", "10ps")); status != http.StatusOK {
			t.Fatalf("edit after migration %s: %d %v", s.id, status, m)
		}
	}
}

// sessionHashes records each session's state hash through the router.
func sessionHashes(t *testing.T, frontURL string, sessions []fleetSession) map[string]any {
	t.Helper()
	hashes := map[string]any{}
	for _, s := range sessions {
		status, _, sum := fleetJSON(t, "GET", frontURL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("summary %s: %d", s.id, status)
		}
		hashes[s.id] = sum["state_hash"]
	}
	return hashes
}

// TestFleetRouterCrashRecovery kills the router (the component holding
// the only copy of the pin table) and starts a fresh one over the same
// members. The new router must rebuild every pin from the members'
// replication inventories — including resolving a session that two
// replicas both claim live, which this test manufactures by adopting a
// standby behind the old router's back. Zero sessions may be lost and
// every state hash must survive the rebuild.
func TestFleetRouterCrashRecovery(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	members := []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}}
	router, front := fleetFront(t, members)

	sessions := openFleetSessions(t, front.URL, 2)
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "60ps")); status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
	}
	hashes := sessionHashes(t, front.URL, sessions)

	// Manufacture a double-claim: adopt one r1 session's standby directly
	// on r2, bypassing the router. Both replicas now serve it live.
	var dup fleetSession
	for _, s := range sessions {
		if s.replica == "r1" {
			dup = s
			break
		}
	}
	if status, _, m := fleetJSON(t, "POST", d2.base+"/v1/replication/sessions/"+dup.id+"/adopt", nil); status != http.StatusOK || m["adopted"] != true {
		t.Fatalf("rogue adopt on r2: %d %v", status, m)
	}

	// Crash the router: its in-memory pin table dies with it.
	front.Close()
	router.Close()

	// A fresh router over the same member list reconciles at start.
	_, front2 := fleetFront(t, members)

	// The double-claim resolved to exactly one serving replica: the ring
	// owner (journal sequences tie — the standby was fully caught up).
	status, hdr, m := fleetJSON(t, "GET", front2.URL+"/v1/sessions/"+dup.id, nil)
	if status != http.StatusOK {
		t.Fatalf("double-claimed session after rebuild: %d %v", status, m)
	}
	if got := hdr.Get("X-Hb-Replica"); got != "r1" {
		t.Fatalf("double-claim resolved to %q, want the ring owner r1", got)
	}
	if status, _, list := fleetJSON(t, "GET", d2.base+"/v1/sessions", nil); status == http.StatusOK {
		if rows, ok := list["sessions"].([]any); ok {
			for _, row := range rows {
				if rm, ok := row.(map[string]any); ok && rm["session"] == dup.id {
					t.Fatalf("loser replica r2 still serves %s after reconcile", dup.id)
				}
			}
		}
	}

	// Every session answers through the new router, from its pre-crash
	// replica, with its pre-crash state.
	for _, s := range sessions {
		status, hdr, sum := fleetJSON(t, "GET", front2.URL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("session %s lost across router restart: %d %v", s.id, status, sum)
		}
		if got := hdr.Get("X-Hb-Replica"); got != s.replica {
			t.Fatalf("session %s moved %s -> %s across a router restart (nothing failed)", s.id, s.replica, got)
		}
		if sum["state_hash"] != hashes[s.id] {
			t.Fatalf("session %s state changed across router restart: %v != %v", s.id, sum["state_hash"], hashes[s.id])
		}
	}

	// The rebuilt pin table keeps taking writes and new sessions.
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front2.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g0", "15ps")); status != http.StatusOK {
			t.Fatalf("edit after rebuild %s: %d %v", s.id, status, m)
		}
	}
	if status, _, m := fleetJSON(t, "POST", front2.URL+"/v1/sessions", map[string]any{"design": chainSrc(90)}); status != http.StatusCreated {
		t.Fatalf("open after rebuild: %d %v", status, m)
	}
}

// TestFleetReconcileAdoptsOrphanedStandby crashes the router, then the
// primary of a session: the session now survives only as a standby
// journal. A fresh router must adopt it on the standby holder while
// reconciling, with the report the session had before both crashes.
func TestFleetReconcileAdoptsOrphanedStandby(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	members := []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}}
	router, front := fleetFront(t, members)

	var victim string
	for _, s := range openFleetSessions(t, front.URL, 1) {
		if s.replica == "r1" && victim == "" {
			victim = s.id
		}
	}
	if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+victim+"/edits", adjustEdit("g1", "65ps")); status != http.StatusOK {
		t.Fatalf("edit %s: %d %v", victim, status, m)
	}
	status, _, before := fleetDoReport(t, front.URL, victim)
	if status != http.StatusOK {
		t.Fatalf("report before crash: %d", status)
	}

	front.Close()
	router.Close()
	d1.kill9(t)

	_, front2 := fleetFront(t, members)
	status, hdr, after := fleetDoReport(t, front2.URL, victim)
	if status != http.StatusOK {
		t.Fatalf("orphaned session after reconcile: %d %s", status, truncForLog(after))
	}
	if got := hdr.Get("X-Hb-Replica"); got != "r2" {
		t.Fatalf("orphaned session served by %q, want the standby holder r2", got)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across the orphan adopt:\nbefore: %s\nafter:  %s",
			truncForLog(before), truncForLog(after))
	}
}

// TestFleetJoinMigratesBounded adds a third replica to a loaded
// two-replica fleet at runtime. The bulk migration moves only displaced
// sessions (every move targets the joining member — a session moving
// between the two surviving members would be unbounded churn), state
// hashes survive the moves, no request sees a 5xx, and the ring serves
// new placements on the joined member.
func TestFleetJoinMigratesBounded(t *testing.T) {
	dir1, dir2, dir3 := t.TempDir(), t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	sessions := openFleetSessions(t, front.URL, 2)
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "45ps")); status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
	}
	hashes := sessionHashes(t, front.URL, sessions)

	// Hammer every session across the join; any 5xx fails the test.
	var server5xx atomic.Int64
	stopHammer := make(chan struct{})
	var hammerWG sync.WaitGroup
	hammerWG.Add(1)
	go func() {
		defer hammerWG.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stopHammer:
				return
			default:
			}
			s := sessions[i%len(sessions)]
			resp, err := client.Get(front.URL + "/v1/sessions/" + s.id)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				server5xx.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	d3 := startDaemon(t, "-journal-dir", dir3, "-replica-id", "r3")
	status, _, m := fleetJSON(t, "POST", front.URL+"/fleet/members/join",
		map[string]any{"id": "r3", "url": d3.base})
	if status != http.StatusOK || m["joined"] != true {
		t.Fatalf("join r3: %d %v", status, m)
	}
	if errs, ok := m["errors"].([]any); ok && len(errs) > 0 {
		t.Fatalf("join migration errors: %v", errs)
	}
	close(stopHammer)
	hammerWG.Wait()
	if n := server5xx.Load(); n > 0 {
		t.Fatalf("%d request(s) got a 5xx during the join", n)
	}

	// Bounded migration: every session either stayed put or moved to the
	// joining member, and the join reported exactly the moved count.
	moved := 0
	for _, s := range sessions {
		status, hdr, sum := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("post-join session %s: %d %v", s.id, status, sum)
		}
		got := hdr.Get("X-Hb-Replica")
		if got != s.replica {
			if got != "r3" {
				t.Fatalf("session %s moved %s -> %s; only moves to the joining member are bounded", s.id, s.replica, got)
			}
			moved++
		}
		if sum["state_hash"] != hashes[s.id] {
			t.Fatalf("session %s state changed across join migration: %v != %v", s.id, sum["state_hash"], hashes[s.id])
		}
	}
	if reported, ok := m["migrated"].(float64); !ok || int(reported) != moved {
		t.Fatalf("join reported migrated=%v, observed %d moved sessions", m["migrated"], moved)
	}

	// Migrated sessions keep taking edits, and new placements reach r3.
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g0", "20ps")); status != http.StatusOK {
			t.Fatalf("edit after join %s: %d %v", s.id, status, m)
		}
	}
	sawR3 := false
	for k := 200; k < 280 && !sawR3; k++ {
		status, hdr, m := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": chainSrc(k)})
		if status != http.StatusCreated {
			t.Fatalf("post-join open: %d %v", status, m)
		}
		sawR3 = hdr.Get("X-Hb-Replica") == "r3"
	}
	if !sawR3 {
		t.Fatal("no new session landed on the joined member")
	}
}

// TestFleetLeaveMigratesSessions removes a member at runtime: its
// sessions migrate away with state intact, the member leaves the ring
// and the member list, and new placements avoid it.
func TestFleetLeaveMigratesSessions(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	sessions := openFleetSessions(t, front.URL, 1)
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "35ps")); status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
	}
	hashes := sessionHashes(t, front.URL, sessions)

	status, _, m := fleetJSON(t, "POST", front.URL+"/fleet/members/leave", map[string]any{"id": "r1"})
	if status != http.StatusOK || m["left"] != true {
		t.Fatalf("leave r1: %d %v", status, m)
	}

	for _, s := range sessions {
		status, hdr, sum := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+s.id, nil)
		if status != http.StatusOK {
			t.Fatalf("post-leave session %s: %d %v", s.id, status, sum)
		}
		if got := hdr.Get("X-Hb-Replica"); got != "r2" {
			t.Fatalf("session %s served by %q after r1 left", s.id, got)
		}
		if sum["state_hash"] != hashes[s.id] {
			t.Fatalf("session %s state changed across leave migration: %v != %v", s.id, sum["state_hash"], hashes[s.id])
		}
	}

	if status, _, mm := fleetJSON(t, "GET", front.URL+"/fleet/members", nil); status == http.StatusOK {
		if rows, ok := mm["members"].([]any); ok {
			for _, row := range rows {
				if rm, ok := row.(map[string]any); ok && rm["id"] == "r1" {
					t.Fatalf("r1 still in the member list after leave: %v", mm)
				}
			}
		}
	}
	for k := 300; k < 310; k++ {
		status, hdr, m := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": chainSrc(k)})
		if status != http.StatusCreated {
			t.Fatalf("post-leave open: %d %v", status, m)
		}
		if got := hdr.Get("X-Hb-Replica"); got != "r2" {
			t.Fatalf("new session placed on %q after r1 left", got)
		}
	}
}

// TestFleetChainedStandbyDoubleFailure is the chained-replication
// acceptance test: with a chain of two standbys over three replicas,
// kill the session's primary, then kill the replica that adopted it.
// The session must survive both deaths on the last replica, and its
// slack report must be byte-identical to an independent replay of the
// exported journal on a fresh standalone daemon.
func TestFleetChainedStandbyDoubleFailure(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	daemons := map[string]*daemon{
		"r1": startDaemon(t, "-journal-dir", dirs[0], "-replica-id", "r1"),
		"r2": startDaemon(t, "-journal-dir", dirs[1], "-replica-id", "r2"),
		"r3": startDaemon(t, "-journal-dir", dirs[2], "-replica-id", "r3"),
	}
	_, front := fleetFront(t, []fleet.Member{
		{ID: "r1", URL: daemons["r1"].base},
		{ID: "r2", URL: daemons["r2"].base},
		{ID: "r3", URL: daemons["r3"].base},
	})

	status, hdr, m := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": chainSrc(31)})
	if status != http.StatusCreated {
		t.Fatalf("open: %d %v", status, m)
	}
	sid := m["session"].(string)
	primary := hdr.Get("X-Hb-Replica")
	if primary == "" {
		t.Fatal("open response lacks X-Hb-Replica")
	}
	for i := 0; i < 3; i++ {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+sid+"/edits", adjustEdit("g1", "80ps")); status != http.StatusOK {
			t.Fatalf("edit %d: %d %v", i, status, m)
		}
	}

	// First death: the primary. Failover must adopt from the standby
	// chain (both remaining replicas hold a streamed copy).
	daemons[primary].kill9(t)
	status, hdr, m = fleetJSON(t, "GET", front.URL+"/v1/sessions/"+sid, nil)
	if status != http.StatusOK {
		t.Fatalf("session after first kill: %d %v", status, m)
	}
	second := hdr.Get("X-Hb-Replica")
	if second == primary || second == "" {
		t.Fatalf("first failover served by %q (primary was %q)", second, primary)
	}
	// More edits on the adopter: the re-attached chain must replicate
	// them to the one replica left standing behind it.
	for i := 0; i < 2; i++ {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+sid+"/edits", adjustEdit("g2", "40ps")); status != http.StatusOK {
			t.Fatalf("edit after first failover %d: %d %v", i, status, m)
		}
	}

	// Second death: the adopter. Only one replica remains.
	daemons[second].kill9(t)
	status, hdr, m = fleetJSON(t, "GET", front.URL+"/v1/sessions/"+sid, nil)
	if status != http.StatusOK {
		t.Fatalf("session after second kill: %d %v", status, m)
	}
	last := hdr.Get("X-Hb-Replica")
	if last == primary || last == second || last == "" {
		t.Fatalf("second failover served by %q (dead: %q, %q)", last, primary, second)
	}
	if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+sid+"/edits", adjustEdit("g0", "10ps")); status != http.StatusOK {
		t.Fatalf("edit after second failover: %d %v", status, m)
	}

	// Byte-identical state: the twice-failed-over session's report must
	// equal a fresh standalone daemon's report after replaying the
	// surviving replica's exported journal.
	status, _, adopted := fleetDoReport(t, front.URL, sid)
	if status != http.StatusOK {
		t.Fatalf("report after double failure: %d", status)
	}
	exStatus, _, journalBytes := fleetDo(t, "GET", daemons[last].base+"/v1/sessions/"+sid+"/journal", nil)
	if exStatus != http.StatusOK {
		t.Fatalf("journal export from survivor: %d", exStatus)
	}
	refDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(refDir, sid+".journal"), journalBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := startDaemon(t, "-journal-dir", refDir)
	refStatus, _, reference := fleetDoReport(t, ref.base, sid)
	if refStatus != http.StatusOK {
		t.Fatalf("reference replay report: %d", refStatus)
	}
	if !bytes.Equal(adopted, reference) {
		t.Fatalf("report after double failure differs from journal replay:\nadopted:   %s\nreference: %s",
			truncForLog(adopted), truncForLog(reference))
	}
}

// TestFleetDrainRollsBackRefusedAdopt drains a replica whose only
// migration target is full (-max-sessions): the adopt is refused, so the
// drain must report the session as an error and roll it back onto the
// source, where it keeps serving with the state it had before the drain.
func TestFleetDrainRollsBackRefusedAdopt(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2", "-max-sessions", "1")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	// One session on each replica; r2 is then at its limit, and opens
	// that hash to it answer 503.
	var victim string
	onR2 := false
	for k := 5; k < 64 && (victim == "" || !onR2); k++ {
		status, hdr, m := fleetJSON(t, "POST", front.URL+"/v1/sessions", map[string]any{"design": chainSrc(k)})
		switch {
		case status == http.StatusServiceUnavailable && onR2:
			continue
		case status != http.StatusCreated:
			t.Fatalf("open chain(%d): %d %v", k, status, m)
		case hdr.Get("X-Hb-Replica") == "r2":
			onR2 = true
		case victim == "":
			victim = m["session"].(string)
		default:
			// A second r1 session would only widen the drain; close it.
			fleetJSON(t, "DELETE", front.URL+"/v1/sessions/"+m["session"].(string), nil)
		}
	}
	if victim == "" || !onR2 {
		t.Fatalf("placement never spread (victim %q, r2 full %v)", victim, onR2)
	}
	if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+victim+"/edits", adjustEdit("g1", "70ps")); status != http.StatusOK {
		t.Fatalf("edit %s: %d %v", victim, status, m)
	}
	status, _, before := fleetDoReport(t, front.URL, victim)
	if status != http.StatusOK {
		t.Fatalf("report before drain: %d", status)
	}

	status, _, m := fleetJSON(t, "POST", front.URL+"/fleet/drain/r1", nil)
	if status != http.StatusConflict {
		t.Fatalf("drain r1 onto a full r2: %d %v, want 409", status, m)
	}
	errs, _ := m["errors"].([]any)
	if len(errs) != 1 || !strings.HasPrefix(errs[0].(string), victim+":") {
		t.Fatalf("drain errors %v, want one for %s", m["errors"], victim)
	}

	status, hdr, after := fleetDoReport(t, front.URL, victim)
	if status != http.StatusOK {
		t.Fatalf("report after rolled-back drain: %d %s", status, truncForLog(after))
	}
	if got := hdr.Get("X-Hb-Replica"); got != "r1" {
		t.Fatalf("rolled-back session served by %q, want r1", got)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across the rolled-back drain:\nbefore: %s\nafter:  %s",
			truncForLog(before), truncForLog(after))
	}
	if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+victim+"/edits", adjustEdit("g0", "10ps")); status != http.StatusOK {
		t.Fatalf("edit after rollback: %d %v", status, m)
	}
}

// TestFleetRejoinClosesStaleCopies restarts a SIGKILLed replica on its
// old journal directory and URL after its sessions failed over. The
// restarted replica recovers those sessions from disk; once the router
// sees it up again it must close them there, while the router keeps
// serving them from the adopter with unchanged reports.
func TestFleetRejoinClosesStaleCopies(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	d1 := startDaemon(t, "-journal-dir", dir1, "-replica-id", "r1")
	d2 := startDaemon(t, "-journal-dir", dir2, "-replica-id", "r2")
	_, front := fleetFront(t, []fleet.Member{{ID: "r1", URL: d1.base}, {ID: "r2", URL: d2.base}})

	sessions := openFleetSessions(t, front.URL, 1)
	var victims []string
	for _, s := range sessions {
		if status, _, m := fleetJSON(t, "POST", front.URL+"/v1/sessions/"+s.id+"/edits", adjustEdit("g1", "55ps")); status != http.StatusOK {
			t.Fatalf("edit %s: %d %v", s.id, status, m)
		}
		if s.replica == "r1" {
			victims = append(victims, s.id)
		}
	}
	reports := map[string][]byte{}
	for _, id := range victims {
		status, _, rep := fleetDoReport(t, front.URL, id)
		if status != http.StatusOK {
			t.Fatalf("report %s: %d", id, status)
		}
		reports[id] = rep
	}

	d1.kill9(t)
	for _, id := range victims {
		status, hdr, m := fleetJSON(t, "GET", front.URL+"/v1/sessions/"+id, nil)
		if status != http.StatusOK || hdr.Get("X-Hb-Replica") != "r2" {
			t.Fatalf("failover of %s: %d via %q %v", id, status, hdr.Get("X-Hb-Replica"), m)
		}
	}

	// Same journal directory, same URL: the restarted r1 replays its old
	// journals and serves stale copies until the router closes them.
	startDaemon(t, "-addr", strings.TrimPrefix(d1.base, "http://"), "-journal-dir", dir1, "-replica-id", "r1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		stale := 0
		if status, _, list := fleetJSON(t, "GET", d1.base+"/v1/sessions", nil); status == http.StatusOK {
			rows, _ := list["sessions"].([]any)
			for _, row := range rows {
				for _, id := range victims {
					if rm, ok := row.(map[string]any); ok && rm["session"] == id {
						stale++
					}
				}
			}
		}
		_, _, rdy := fleetJSON(t, "GET", front.URL+"/readyz", nil)
		members, _ := rdy["members"].(map[string]any)
		r1, _ := members["r1"].(map[string]any)
		if stale == 0 && r1 != nil && r1["up"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined r1 still serves %d stale session(s) (router view %v)", stale, r1)
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, id := range victims {
		status, hdr, rep := fleetDoReport(t, front.URL, id)
		if status != http.StatusOK {
			t.Fatalf("report %s after rejoin: %d", id, status)
		}
		if got := hdr.Get("X-Hb-Replica"); got != "r2" {
			t.Fatalf("session %s served by %q after r1 rejoined, want r2", id, got)
		}
		if !bytes.Equal(rep, reports[id]) {
			t.Fatalf("report of %s changed across failover and rejoin:\nbefore: %s\nafter:  %s",
				id, truncForLog(reports[id]), truncForLog(rep))
		}
	}
}

// TestAdoptRefusedAtLimitKeepsStandby adopts a streamed standby on a
// replica that is already at -max-sessions. The 503 must leave the
// standby journal where it was, with the same frame count, and nothing
// in the live journal directory — so a restart does not resurrect a
// session the router kept elsewhere.
func TestAdoptRefusedAtLimitKeepsStandby(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ra := startDaemon(t, "-journal-dir", dirA, "-replica-id", "ra")
	rbArgs := []string{"-journal-dir", dirB, "-replica-id", "rb", "-max-sessions", "1"}
	rb := startDaemon(t, rbArgs...)

	if status, m := rb.req(t, "POST", "/v1/sessions", map[string]any{"design": chainSrc(7)}); status != http.StatusCreated {
		t.Fatalf("fill rb: %d %v", status, m)
	}
	// Open on ra with rb as its one-hop standby chain, then commit an edit.
	body, _ := json.Marshal(map[string]any{"design": chainSrc(9)})
	req, _ := http.NewRequest("POST", ra.base+"/v1/sessions", bytes.NewReader(body))
	req.Header.Set(fleet.PeersHeader, fleet.FormatPeers([]fleet.Member{{ID: "rb", URL: rb.base}}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open on ra: %d", resp.StatusCode)
	}
	const sid = "ra-s1"
	if status, m := ra.req(t, "POST", "/v1/sessions/"+sid+"/edits", adjustEdit("g1", "30ps")); status != http.StatusOK {
		t.Fatalf("edit on ra: %d %v", status, m)
	}

	standbyNext := func() float64 {
		t.Helper()
		req, _ := http.NewRequest("POST", rb.base+"/v1/replication/sessions/"+sid+"/frames", nil)
		req.Header.Set(fleet.FirstSeqHeader, "0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		next, _ := m["next"].(float64)
		return next
	}
	deadline := time.Now().Add(5 * time.Second)
	for standbyNext() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("rb's standby never caught up with ra")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if status, m := rb.req(t, "POST", "/v1/replication/sessions/"+sid+"/adopt", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("adopt on a full rb: %d %v, want 503", status, m)
	}
	if _, err := os.Stat(filepath.Join(dirB, sid+".journal")); !os.IsNotExist(err) {
		t.Fatalf("refused adopt left a live journal on rb (stat err %v)", err)
	}
	if next := standbyNext(); next != 2 {
		t.Fatalf("standby next after refused adopt = %v, want 2", next)
	}

	rb.kill9(t)
	rb = startDaemon(t, append([]string{"-addr", strings.TrimPrefix(rb.base, "http://")}, rbArgs...)...)
	status, list := rb.req(t, "GET", "/v1/sessions", nil)
	if rows, _ := list["sessions"].([]any); status != http.StatusOK || len(rows) != 1 {
		t.Fatalf("rb after restart serves %v (status %d), want only its own session", list, status)
	}
	if status, m := rb.req(t, "GET", "/v1/sessions/"+sid, nil); status != http.StatusNotFound {
		t.Fatalf("rb serves %s after restart: %d %v", sid, status, m)
	}
}
