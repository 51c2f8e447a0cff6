package fleet

import "testing"

// TestMoveSkipsClosedSession: a session closed (unpinned) before its
// move runs, or with a close in flight when a planned move starts, is
// left alone — no park is sent, nothing is reported as failed. The fake
// members serve no park endpoint, so an attempted park would error.
func TestMoveSkipsClosedSession(t *testing.T) {
	r, _ := obsRouter(t, &fakeMember{id: "r1"}, &fakeMember{id: "r2"})
	r.setDraining("r1", true) // the ring now owns every key on r2

	r.pinSession("closing", "design:1", "r1", []string{"r2"})
	r.mu.Lock()
	rt := r.sessions["closing"]
	r.mu.Unlock()
	rt.closing = 1
	if to, err := r.move(rt, "r1", "drain"); err != nil || to != "r1" {
		t.Fatalf("planned move of a closing session: %q, %v", to, err)
	}

	r.pinSession("closed", "design:2", "r1", []string{"r2"})
	r.mu.Lock()
	rt = r.sessions["closed"]
	delete(r.sessions, "closed")
	r.members["r1"].up = false
	r.mu.Unlock()
	if to, err := r.move(rt, "r1", "failover"); err != nil || to != "r1" {
		t.Fatalf("failover of a closed session: %q, %v", to, err)
	}
	if events, _ := r.flight.Since(0, ""); len(events) != 0 {
		t.Fatalf("skipped moves left flight events: %+v", events)
	}
}
