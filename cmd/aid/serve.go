package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
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

// debugHandler serves net/http/pprof's /debug/pprof/ endpoints from a
// mux of its own. It is mounted only on the -debug-addr listener: the
// API listener's handler has no such routes, and nothing is served from
// http.DefaultServeMux, where importing the package registers them too.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveListeners serves the API handler on ln and, when dln is not nil,
// the profiling endpoints on dln, each from its own server. Each
// server's Serve error goes to errc, which must have room for two.
func serveListeners(api http.Handler, ln, dln net.Listener, errc chan<- error) (srv, debugSrv *http.Server) {
	srv = newServer(api, readHeaderTimeout)
	go func() { errc <- srv.Serve(ln) }()
	if dln != nil {
		debugSrv = newServer(debugHandler(), readHeaderTimeout)
		go func() { errc <- debugSrv.Serve(dln) }()
	}
	return srv, debugSrv
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
		tenantCap    = fs.Int("tenant-cap", 8, "max queued+running sessions per tenant; beyond it 429 with Retry-After: 1")
		timeout      = fs.Duration("session-timeout", 5*time.Minute, "default per-session lifetime cap")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight sessions on shutdown")
		retain       = fs.Int("retain-sessions", 256, "terminal sessions retained for status/report queries")
		memoCap      = fs.Int("memo-cap", 32, "cross-session scheduler memos retained per tenant (LRU)")
		resultCache  = fs.Int("result-cache", 0, "finished-session results served whole on a repeat spec, per tenant (LRU; 0 = off)")
		maxCorpus    = fs.Int64("max-corpus-bytes", 64<<20, "corpus ingest body cap in bytes (413 beyond it)")
		persist      = fs.String("persist", "", "state directory keeping each scheduler memo in one checksummed file; empty = memos die with the process")
		debugAddr    = fs.String("debug-addr", "", "listen address of a separate listener serving net/http/pprof under /debug/pprof/; empty = none")
	)
	fs.Parse(args)
	if *debugAddr == "" {
		// Importing net/http/pprof links runtime.MemProfile, so the
		// runtime samples heap allocations for a profile at its default
		// rate. The linker turns that off in a binary that cannot read a
		// profile; a daemon without a debug listener never serves one,
		// so it turns the sampling off itself. Left on, it raised the
		// serve benchmark's peak RSS by about 1.4 MB.
		runtime.MemProfileRate = 0
	}

	cfg := service.Config{
		SessionBudget:  *budget,
		TenantCap:      *tenantCap,
		SessionTimeout: *timeout,
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
	var dln net.Listener
	if *debugAddr != "" {
		if dln, err = net.Listen("tcp", *debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "aid serve: debug listener:", err)
			os.Exit(1)
		}
	}
	errc := make(chan error, 2)
	srv, debugSrv := serveListeners(service.NewHandler(mgr), ln, dln, errc)
	fmt.Fprintf(os.Stderr, "aid serve: listening on http://%s\n", ln.Addr())
	if dln != nil {
		fmt.Fprintf(os.Stderr, "aid serve: profiles on http://%s/debug/pprof/\n", dln.Addr())
	}

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
	// for their goroutines either way. The debug listener closes at once:
	// a profile still being taken must not hold up the drain.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "aid serve: http shutdown:", err)
	}
	if err := mgr.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aid serve: drain timed out; sessions cancelled")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "aid serve: drained cleanly")
}
