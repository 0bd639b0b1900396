// Daemon-mode walkthrough: drive `aid serve` over plain HTTP.
//
// The daemon (internal/service behind `aid serve`) runs discovery
// sessions for many tenants concurrently: corpora are ingested once per
// tenant, sessions stream their typed pipeline events as JSON lines,
// and same-tenant sessions debugging the same target share a scheduler
// memo so repeated runs skip already-replayed interventions.
//
// This client speaks only HTTP and the public aid package (for
// aid.UnmarshalEvent) — no internal imports — exactly like an external
// consumer would. It builds and starts the daemon itself so the
// example is self-contained, and stops it again (SIGTERM, then a clean
// drain) on every exit path. Run it from the repository root:
//
//	go run ./examples/daemon-client
//
// Point it at an already-running daemon instead with -addr:
//
//	aid serve -addr 127.0.0.1:8344 &
//	go run ./examples/daemon-client -addr 127.0.0.1:8344
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aid"
)

func main() {
	addr := flag.String("addr", "", "daemon address (empty = build and start `aid serve` for the demo)")
	flag.Parse()
	if err := run(*addr); err != nil {
		log.Fatal(err)
	}
}

// run drives the demo against the daemon at addr, or against one it
// starts itself when addr is empty; that one is stopped on every
// return path. Only a started daemon is stopped, never one given with
// -addr.
func run(addr string) (err error) {
	base := "http://" + addr
	if addr == "" {
		d, serr := startDaemon()
		if serr != nil {
			return serr
		}
		// err is run's named result here, so a failed stop is reported.
		defer func() {
			if serr := d.stop(); err == nil {
				err = serr
			}
		}()
		base = d.base
	}
	if err := waitHealthy(base); err != nil {
		return err
	}

	// 1. Start a session for tenant "acme": the npgsql data race, small
	// corpus so the demo is quick.
	spec := map[string]any{"study": "npgsql", "successes": 12, "failures": 12}
	status, err := startSession(base, "acme", spec)
	if err != nil {
		return err
	}
	fmt.Printf("session %s accepted (state %s)\n\n", status["id"], status["state"])
	id, _ := status["id"].(string)

	// 2. Stream its events as they happen — the same typed events an
	// embedded aid.WithObserver sees, as JSON lines over HTTP.
	fmt.Println("event stream:")
	if err := streamEvents(base, id, true); err != nil {
		return err
	}

	// 3. Fetch the finished report.
	var rep aid.Report
	if err := getJSON(base+"/v1/sessions/"+id+"/report", &rep); err != nil {
		return err
	}
	fmt.Printf("\nroot cause: %s\ncausal path: %d predicates, %d interventions\n",
		rep.RootCause, rep.CausalPathLen, rep.AIDInterventions)

	// 4. Run the same session again: the tenant's shared scheduler memo
	// now serves the replays, so the second session reports cache hits.
	if status, err = startSession(base, "acme", spec); err != nil {
		return err
	}
	id2, _ := status["id"].(string)
	if err := streamEvents(base, id2, false); err != nil {
		return err
	}
	var final map[string]any
	if err := getJSON(base+"/v1/sessions/"+id2, &final); err != nil {
		return err
	}
	fmt.Printf("\nsecond run: %v scheduler requests, %v served from the shared memo\n",
		final["schedulerRequests"], final["schedulerCacheHits"])
	return nil
}

// daemon is an `aid serve` process the example started.
type daemon struct {
	cmd  *exec.Cmd
	dir  string // temp dir holding the built binary
	base string
	// logDone closes when the daemon's stderr reaches EOF; clean is set
	// before that if the daemon reported a clean drain.
	logDone chan struct{}
	clean   bool
}

// startDaemon builds aid into a temp dir and execs it directly on a
// free port, so stop's SIGTERM reaches the daemon itself rather than a
// `go run` parent. (An interrupt from the terminal reaches it too: it
// shares the example's process group and drains on SIGINT.)
func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp("", "aid-daemon-client-")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(dir, "aid")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/aid").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("build aid: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, logDone: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "http://"); i >= 0 {
			d.base = strings.TrimSpace(sc.Text()[i:])
			break
		}
	}
	// Keep draining stderr so the daemon never blocks on it.
	go func() {
		defer close(d.logDone)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "drained cleanly") {
				d.clean = true
			}
		}
	}()
	if d.base == "" {
		<-d.logDone
		err := cmd.Wait()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon did not report a listen address (exit: %v)", err)
	}
	return d, nil
}

// stop sends the daemon SIGTERM and waits until it has exited,
// requiring that it reported a clean drain.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	<-d.logDone // all of stderr is read before Wait, as exec requires
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	if !d.clean {
		return errors.New("stop daemon: it exited without draining cleanly")
	}
	return nil
}

func waitHealthy(base string) error {
	for range 100 {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became healthy", base)
}

func startSession(base, tenant string, spec map[string]any) (map[string]any, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/tenants/"+tenant+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, fmt.Errorf("saturated; retry after %s seconds", resp.Header.Get("Retry-After"))
	}
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return nil, fmt.Errorf("start session: %w", err)
	}
	return status, nil
}

// streamEvents follows the session's JSON-lines event stream to its
// end. With show set it decodes each line back to a typed aid event
// with the public codec and prints the discovery milestones.
func streamEvents(base, id string, show bool) error {
	resp, err := http.Get(base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if !show {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		ev, err := aid.UnmarshalEvent(line)
		if err != nil {
			// The trailing session-end envelope is service-level, not a
			// pipeline event.
			fmt.Printf("  [end] %s\n", line)
			continue
		}
		switch ev.(type) {
		case aid.RoundDone, aid.CauseConfirmed, aid.DAGBuilt, aid.DiscoveryDone:
			fmt.Println("  ", ev)
		}
	}
	return sc.Err()
}

// getJSON decodes the JSON body of a successful GET into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
