package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aid"
	"aid/internal/service"
)

// The daemon's connection timeouts. A client must finish its request
// header within readHeaderTimeout, and an idle keep-alive connection is
// closed after idleTimeout, so a slow or silent client cannot hold a
// connection forever. Bodies are not timed: a corpus upload may be
// large, and event streams are long-lived by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server around h, with the given
// request-header timeout (tests pass a short one).
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// runServe is the daemon mode: `aid serve` hosts the multi-tenant
// debugging service over HTTP until SIGTERM/SIGINT, then drains —
// in-flight sessions get the grace period to finish before being
// cancelled, and the process exits only after every session goroutine
// has unwound.
func runServe(args []string) {
	fs := flag.NewFlagSet("aid serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8344", "listen address (host:port; :0 picks a free port)")
		data         = fs.String("data", "", "corpus data directory (JSON-lines files); empty = in-memory only")
		budget       = fs.Int("budget", 4, "global concurrent-session weight budget")
		tenantCap    = fs.Int("tenant-cap", 8, "max queued+running sessions per tenant before 429")
		timeout      = fs.Duration("session-timeout", 5*time.Minute, "default per-session lifetime cap")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight sessions on shutdown")
		retain       = fs.Int("retain-sessions", 256, "terminal sessions retained for status/report queries")
		memoCap      = fs.Int("memo-cap", 32, "cross-session scheduler memos retained per tenant (LRU)")
		resultCache  = fs.Int("result-cache", 0, "finished-session results served whole on a repeat spec, per tenant (LRU; 0 = off)")
		maxCorpus    = fs.Int64("max-corpus-bytes", 64<<20, "corpus ingest body cap in bytes (413 beyond it)")
		persist      = fs.String("persist", "", "state directory keeping each scheduler memo in one checksummed file; empty = memos die with the process")
	)
	fs.Parse(args)

	cfg := service.Config{
		SessionBudget:  *budget,
		TenantCap:      *tenantCap,
		SessionTimeout: *timeout,
		RetryAfter:     *retryAfter,
		RetainSessions: *retain,
		TenantMemoCap:  *memoCap,
		ResultCacheCap: *resultCache,
		MaxCorpusBytes: *maxCorpus,
		PersistDir:     *persist,
		// Recovery is warm-start degradation by design; log what it kept
		// and dropped so an operator sees lost cache warmth at startup.
		Observer: aid.ObserverFunc(func(e aid.Event) {
			fmt.Fprintf(os.Stderr, "aid serve: %s\n", e)
		}),
	}
	if *data != "" {
		store, err := service.NewFileStore(*data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aid serve:", err)
			os.Exit(1)
		}
		cfg.Store = store
	}
	mgr := service.NewManager(cfg)
	if *persist != "" {
		// NewManager degrades to persistence-off when the state directory
		// is unusable; an operator who asked for -persist wants that loud
		// at startup, not discovered on the stats endpoint after a crash.
		if st := mgr.Stats(); st.Recovery != nil && st.Recovery.Error != "" {
			fmt.Fprintf(os.Stderr, "aid serve: persistence disabled: %s\n", st.Recovery.Error)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aid serve:", err)
		os.Exit(1)
	}
	srv := newServer(service.NewHandler(mgr), readHeaderTimeout)
	fmt.Fprintf(os.Stderr, "aid serve: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "aid serve: %s; draining (up to %s)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "aid serve:", err)
		os.Exit(1)
	}

	// Drain: stop accepting HTTP, then let sessions finish under the
	// grace period; Manager.Shutdown force-cancels stragglers and waits
	// for their goroutines either way.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "aid serve: http shutdown:", err)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aid serve: drain timed out; sessions cancelled")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "aid serve: drained cleanly")
}
