package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"aid/internal/service"
)

// TestServerDropsSlowHeader pins the daemon's header timeout: a client
// that sends half a request header and then stalls is disconnected
// within the timeout instead of holding the connection.
func TestServerDropsSlowHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	srv := newServer(http.NotFoundHandler(), timeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * timeout))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %s: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited > 5*timeout {
		t.Fatalf("disconnected after %s, want within about %s", waited, timeout)
	}
}

// TestDebugListenerServesPprof pins where the profiling endpoints live:
// the -debug-addr listener answers /debug/pprof/, and the API listener
// answers it with 404 while it still serves the API.
func TestDebugListenerServesPprof(t *testing.T) {
	mgr := service.NewManager(service.Config{})
	t.Cleanup(mgr.Close)
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	ln, dln := listen(), listen()
	srv, debugSrv := serveListeners(service.NewHandler(mgr), ln, dln, make(chan error, 2))
	t.Cleanup(func() {
		srv.Close()
		debugSrv.Close()
	})

	for _, c := range []struct {
		ln   net.Listener
		path string
		want int
	}{
		{dln, "/debug/pprof/", http.StatusOK},
		{dln, "/debug/pprof/cmdline", http.StatusOK},
		{ln, "/debug/pprof/", http.StatusNotFound},
		{ln, "/v1/healthz", http.StatusOK},
		{dln, "/v1/healthz", http.StatusNotFound},
	} {
		resp, err := http.Get("http://" + c.ln.Addr().String() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s on %s: %d, want %d", c.path, c.ln.Addr(), resp.StatusCode, c.want)
		}
	}
}
