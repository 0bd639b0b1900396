package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
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
