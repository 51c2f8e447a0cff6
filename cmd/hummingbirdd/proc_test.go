// Subprocess harness shared by the chaos suite (failpoint-tagged) and
// the fleet failover tests (untagged): the test binary re-execs itself
// as a real hummingbirdd via run(), so process-level faults — SIGKILL,
// torn journal tails, replica death under a fleet router — hit the same
// code paths production does.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// Child mode: become the daemon. The parent passes the argument vector
	// JSON-encoded to sidestep shell quoting.
	if argsJSON := os.Getenv("HB_CHAOS_DAEMON_ARGS"); argsJSON != "" {
		var args []string
		if err := json.Unmarshal([]byte(argsJSON), &args); err != nil {
			fmt.Fprintln(os.Stderr, "chaos daemon: bad args:", err)
			os.Exit(2)
		}
		if err := run(args, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "chaos daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one live hummingbirdd child process under test.
type daemon struct {
	base string
	cmd  *exec.Cmd
	done chan error
}

// startDaemon re-execs the test binary as a hummingbirdd with the given
// extra flags and waits until /healthz answers. Without an -addr among
// the extra flags it listens on a fresh loopback port.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := extra
	addr := ""
	for i := 0; i+1 < len(extra); i++ {
		if extra[i] == "-addr" {
			addr = extra[i+1]
		}
	}
	if addr == "" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = l.Addr().String()
		l.Close()
		args = append([]string{"-addr", addr}, extra...)
	}
	argsJSON, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HB_CHAOS_DAEMON_ARGS="+string(argsJSON))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{base: "http://" + addr, cmd: cmd, done: make(chan error, 1)}
	go func() {
		d.done <- cmd.Wait()
		close(d.done) // later receives (cleanup after an explicit kill) read nil
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became healthy", d.base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill9 delivers SIGKILL — the crash the journal must survive.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.done
}

// req issues one JSON request against the live daemon.
func (d *daemon) req(t *testing.T, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	httpReq, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, m
}

// arm arms a failpoint in the live daemon over HTTP.
func (d *daemon) arm(t *testing.T, name, spec string) {
	t.Helper()
	httpReq, err := http.NewRequest("PUT", d.base+"/debug/failpoints/"+name, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm %s=%s: %d", name, spec, resp.StatusCode)
	}
}
