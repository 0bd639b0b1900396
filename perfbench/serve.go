package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aid"
	"aid/internal/trace"
)

// The serve workload drives the `aid serve` binary, with its default
// flags at GOMAXPROCS=1, over loopback from two closed-loop callers (as
// many as the host's two vCPUs). It is the only workload through the
// service layer, HTTP, the JSON-lines trace codec and the tenants'
// cross-session scheduler memos, with corpus writes beside the session
// reads.

const (
	serveSetups = 5
	callers     = 2
)

// tenants are split between the callers: caller c owns tenants[2c] and
// tenants[2c+1].
var tenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// daemon is a running `aid serve` process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited and been waited for
	err  error         // Wait's error, valid after done

	mu    sync.Mutex
	lines []string // stderr
}

// startDaemon spawns `aid serve` on a free loopback port at GOMAXPROCS=1
// and reads its address from the "listening on" line. The process is
// tied to this one: it is killed if the benchmark dies first. With
// gctrace the daemon logs every GC, which is how a traced run sees the
// daemon's GC pauses from outside.
func startDaemon(ctx context.Context, bin string, gctrace bool) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no aid binary given (--aid)")
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aid serve: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(rest):
				default:
				}
			}
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
		}
		// Wait only after the pipe is drained, as exec.Cmd requires.
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("aid serve exited before listening: %v\n%s", d.err, d.logText())
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, errors.New("aid serve reported no address within 10s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// logLines returns the stderr lines logged so far, from line from on.
func (d *daemon) logLines(from int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.lines[min(from, len(d.lines)):]...)
}

func (d *daemon) logText() string { return strings.Join(d.logLines(0), "\n") }

// gcPauseMs sums the stop-the-world pauses of the GODEBUG=gctrace=1
// lines among lines: the first and last phase of each clock triple, as in
// "gc 7 @0.318s 1%: 0.012+1.1+0.003 ms clock, ...".
func gcPauseMs(lines []string) float64 {
	var sum float64
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 7 || f[0] != "gc" || f[5] != "ms" || f[6] != "clock," {
			continue
		}
		phases := strings.Split(f[4], "+")
		if len(phases) != 3 {
			continue
		}
		a, errA := strconv.ParseFloat(phases[0], 64)
		c, errC := strconv.ParseFloat(phases[2], 64)
		if errA == nil && errC == nil {
			sum += a + c
		}
	}
	return sum
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained cleanly" line.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal aid serve: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(40 * time.Second):
		d.kill()
		return errors.New("aid serve did not exit within 40s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("aid serve exited with %v\n%s", d.err, d.logText())
	}
	if !strings.Contains(d.logText(), "drained cleanly") {
		return fmt.Errorf("aid serve exited without draining cleanly\n%s", d.logText())
	}
	return nil
}

// kill ends the process and waits for it; safe after it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// client speaks the daemon's HTTP API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * callers}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

// call makes a request and reads the whole body.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) waitHealthy(ctx context.Context) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if code, _, err := c.call(ctx, http.MethodGet, "/v1/healthz", nil); err == nil && code == http.StatusOK {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("aid serve not healthy within 10s")
}

// put uploads a corpus.
func (c *client) put(ctx context.Context, tenant, name string, corpus []byte) *failure {
	code, body, err := c.call(ctx, http.MethodPut, "/v1/tenants/"+tenant+"/corpora/"+name, corpus)
	if err != nil {
		return failf(failError, "PUT %s/%s: %v", tenant, name, err)
	}
	if f := checkHTTP("PUT "+tenant+"/"+name, code); f != nil {
		f.detail += ": " + strings.TrimSpace(string(body))
		return f
	}
	return nil
}

// sessionStatus is the part of the daemon's session status the
// benchmark reads.
type sessionStatus struct {
	ID                 string `json:"id"`
	State              string `json:"state"`
	Error              string `json:"error"`
	SchedulerRequests  int    `json:"schedulerRequests"`
	SchedulerCacheHits int    `json:"schedulerCacheHits"`
	Created            string `json:"created"`
	Started            string `json:"started"`
	Finished           string `json:"finished"`
}

// sessionRun is what one session op saw.
type sessionRun struct {
	id     string
	report []byte
	root   string
	rounds int
	// sent, posted, opened, ended and done are client clock readings:
	// POST sent, POST answered, event stream opened, session-end read,
	// report read.
	sent, posted, opened, ended, done time.Time
	// arrivals holds when each pipeline event type first arrived
	// (traced ops only).
	arrivals map[string]time.Time
}

// session runs one session op: POST the spec, follow /events to
// session-end, GET the report. It returns the failed check, if any.
func (c *client) session(ctx context.Context, tenant string, spec sessionSpec, traced bool) (sessionRun, *failure) {
	r := sessionRun{sent: time.Now()}
	body, _ := json.Marshal(spec)
	code, data, err := c.call(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/sessions", body)
	r.posted = time.Now()
	if err != nil {
		return r, failf(failError, "POST session: %v", err)
	}
	if f := checkHTTP("POST session", code); f != nil {
		f.detail += ": " + strings.TrimSpace(string(data))
		return r, f
	}
	var st sessionStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return r, failf(failError, "POST session: bad status %q", data)
	}
	r.id = st.ID

	resp, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+r.id+"/events", nil)
	if err != nil {
		return r, failf(failError, "events %s: %v", r.id, err)
	}
	r.opened = time.Now()
	end, err := readEvents(resp, traced, &r)
	resp.Body.Close()
	r.ended = time.Now()
	if err != nil {
		return r, failf(failError, "events %s: %v", r.id, err)
	}
	if f := checkHTTP("events "+r.id, resp.StatusCode); f != nil {
		return r, f
	}
	if end.State != "done" {
		return r, failf(failState, "session %s ended %q: %s", r.id, end.State, end.Error)
	}

	code, r.report, err = c.call(ctx, http.MethodGet, "/v1/sessions/"+r.id+"/report", nil)
	r.done = time.Now()
	if err != nil {
		return r, failf(failError, "report %s: %v", r.id, err)
	}
	if f := checkHTTP("report "+r.id, code); f != nil {
		return r, f
	}
	var rep struct {
		RootCause        string `json:"rootCause"`
		AIDInterventions int    `json:"aidInterventions"`
	}
	if err := json.Unmarshal(r.report, &rep); err != nil {
		return r, failf(failError, "report %s: %v", r.id, err)
	}
	r.root, r.rounds = rep.RootCause, rep.AIDInterventions
	study := aid.CaseStudyByName(spec.Study)
	if study == nil {
		return r, failf(failError, "unknown study %q", spec.Study)
	}
	return r, checkRoot(spec.Study, r.root, study.WantRootPrefix)
}

// readEvents follows an event stream to its session-end envelope.
func readEvents(resp *http.Response, traced bool, r *sessionRun) (sessionStatus, error) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		if traced {
			now := time.Now()
			var env struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(last, &env) == nil {
				if r.arrivals == nil {
					r.arrivals = map[string]time.Time{}
				}
				if _, seen := r.arrivals[env.Type]; !seen {
					r.arrivals[env.Type] = now
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return sessionStatus{}, err
	}
	var end struct {
		Type  string        `json:"type"`
		Event sessionStatus `json:"event"`
	}
	if err := json.Unmarshal(last, &end); err != nil || end.Type != "session-end" {
		return sessionStatus{}, fmt.Errorf("stream ended without session-end (last line %q)", last)
	}
	return end.Event, nil
}

// get fetches a JSON document into v.
func (c *client) get(ctx context.Context, path string, v any) error {
	code, data, err := c.call(ctx, http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// collectCorpora encodes each case study's 50+50 corpus as the JSON-lines
// bodies the callers upload. This is input generation, not set-up.
func collectCorpora(ctx context.Context) (map[string][]byte, []string, error) {
	corpora := map[string][]byte{}
	var names []string
	for _, st := range aid.CaseStudies() {
		tr, err := aid.New(aid.WithCorpusSize(50, 50)).Collect(ctx, aid.FromStudy(st))
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr.Set); err != nil {
			return nil, nil, err
		}
		corpora[st.Name] = buf.Bytes()
		names = append(names, st.Name)
	}
	return corpora, names, nil
}

// ingestStat accumulates corpus uploads for the ingest metrics.
type ingestStat struct {
	n     int
	bytes int
	dur   time.Duration
}

// setUpServe spawns the daemon, waits until it is healthy, ingests every
// tenant's corpora and warms it up with one session per study (on a
// tenant of its own, without memo sharing, so no tenant starts warm).
func setUpServe(ctx context.Context, cfg config, corpora map[string][]byte, studies []string, ing *ingestStat) (*daemon, *client, error) {
	d, err := startDaemon(ctx, cfg.aidBin, cfg.traced)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(d.base)
	fail := func(err error) (*daemon, *client, error) {
		c.close()
		d.kill()
		return nil, nil, err
	}
	if err := c.waitHealthy(ctx); err != nil {
		return fail(err)
	}
	for _, t := range tenants {
		for _, s := range studies {
			t0 := time.Now()
			if f := c.put(ctx, t, s, corpora[s]); f != nil {
				return fail(errors.New(f.detail))
			}
			ing.n++
			ing.bytes += len(corpora[s])
			ing.dur += time.Since(t0)
		}
	}
	for _, s := range studies {
		if _, f := c.session(ctx, "warm-up", sessionSpec{Study: s, NoShare: true}, false); f != nil {
			return fail(fmt.Errorf("warm-up: %s", f.detail))
		}
	}
	return d, c, nil
}

// callerLog is what one caller recorded; each caller owns its log.
type callerLog struct {
	tally     tally
	latencies []opSample
	rounds    int
	sessions  int
	// first holds each spec's first report. Every upload of a corpus
	// carries the same bytes, so a repeat must reproduce it byte for
	// byte.
	first map[tenantSpec][]byte
	ing   ingestStat
	// Traced runs only: session latencies by op class, traced and
	// untraced, and the traced sessions.
	traced, untraced map[string][]float64
	runs             []tracedSession
	// rss holds the daemon's resident set size after each op (MB), and
	// rssErr the error that ended sampling.
	rss    []float64
	rssErr error
}

// tracedSession is a traced session op with its daemon-side stamps.
type tracedSession struct {
	run    sessionRun
	status sessionStatus
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{daemonProcs: 1}
	corpora, studies, err := collectCorpora(ctx)
	if err != nil {
		return nil, fmt.Errorf("collect corpora: %w", err)
	}

	var d *daemon
	var c *client
	var setupIngest ingestStat
	for i := range serveSetups {
		if d != nil {
			c.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		setupIngest = ingestStat{}
		cfg.probe.probe()
		t0 := time.Now()
		d, c, err = setUpServe(ctx, cfg, corpora, studies, &setupIngest)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		out.setups = append(out.setups, opSample{t0, ms(time.Since(t0))})
	}
	cfg.probe.probe()
	stopped := false
	defer func() {
		if !stopped {
			c.close()
			d.kill()
		}
	}()

	cpu0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	logs := make([]*callerLog, callers)
	daemonPid := strconv.Itoa(d.cmd.Process.Pid)
	rec := newRecorder()
	logFrom := len(d.logLines(0))
	stopProbe := make(chan struct{})
	var probing sync.WaitGroup
	probing.Add(1)
	go func() {
		defer probing.Done()
		cfg.probe.every(stopProbe)
	}()
	out.start = time.Now()
	deadline := out.start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for i := range callers {
		logs[i] = &callerLog{
			first:  map[tenantSpec][]byte{},
			traced: map[string][]float64{}, untraced: map[string][]float64{},
		}
		gen := newServeGen(cfg.seed, i, tenants[2*i:2*i+2], studies)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runCaller(ctx, c, i, gen, corpora, deadline, cfg.traced, rec, daemonPid, logs[i])
		}()
	}
	wg.Wait()
	out.end = time.Now()
	out.elapsed = out.end.Sub(out.start)
	close(stopProbe)
	probing.Wait()
	gcPause := gcPauseMs(d.logLines(logFrom))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	out.steal = stealShare(cpu0, cpu1)
	if out.peakRSS, err = peakRSSMB(daemonPid); err != nil {
		return nil, err
	}
	// How many admissions the daemon refused with 429.
	var stats struct {
		Saturations int `json:"saturations"`
	}
	if err := c.get(ctx, "/v1/stats", &stats); err != nil {
		return nil, err
	}
	c.close()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	ing := setupIngest
	for _, l := range logs {
		if l.rssErr != nil {
			return nil, fmt.Errorf("daemon RSS: %w", l.rssErr)
		}
		out.tally.merge(&l.tally)
		out.latencies = append(out.latencies, l.latencies...)
		out.rss = append(out.rss, l.rss...)
		out.rounds += l.rounds
		out.roundRuns += l.sessions
		ing.n += l.ing.n
		ing.bytes += l.ing.bytes
		ing.dur += l.ing.dur
	}
	out.work = out.tally.attempted - out.tally.failed
	if cfg.traced {
		out.layers = serveLayers(rec, logs, ing, stats.Saturations)
		out.layers["gc.pause_ms_per_op"] = gcPause / float64(max(out.tally.attempted, 1))
		if cfg.spans != "" {
			if err := rec.write(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runCaller is one closed-loop caller: it sends its next op only after
// the previous one completed, until the deadline. After each op it
// samples the daemon's resident set size. In a traced run every other
// op is traced.
func runCaller(ctx context.Context, c *client, caller int, gen *serveGen, corpora map[string][]byte, deadline time.Time, traced bool, rec *recorder, daemonPid string, l *callerLog) {
	for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		callerOp(ctx, c, caller, n, gen.next(), corpora, traced, rec, l)
		rss, err := rssMB(daemonPid)
		if err != nil {
			l.rssErr = err
			return
		}
		l.rss = append(l.rss, rss)
	}
}

// callerOp sends op, the caller's n-th, and records its latency and
// checks.
func callerOp(ctx context.Context, c *client, caller, n int, op serveOp, corpora map[string][]byte, traced bool, rec *recorder, l *callerLog) {
	if op.Put {
		t0 := time.Now()
		f := c.put(ctx, op.Tenant, op.Study, corpora[op.Study])
		lat := time.Since(t0)
		l.latencies = append(l.latencies, opSample{t0, ms(lat)})
		l.tally.add(f)
		if f == nil {
			l.ing.n++
			l.ing.bytes += len(corpora[op.Study])
			l.ing.dur += lat
		}
		return
	}
	tracedOp := traced && n%2 == 1
	r, f := c.session(ctx, op.Tenant, op.Spec, tracedOp)
	if f != nil {
		l.latencies = append(l.latencies, opSample{r.sent, ms(time.Since(r.sent))})
		l.tally.add(f)
		return
	}
	lat := ms(r.done.Sub(r.sent))
	l.latencies = append(l.latencies, opSample{r.sent, lat})
	l.rounds += r.rounds
	l.sessions++
	var repeat, stamps *failure
	key := tenantSpec{op.Tenant, op.Spec}
	if first, ok := l.first[key]; !ok {
		l.first[key] = r.report
	} else if !bytes.Equal(first, r.report) {
		repeat = failf(failRepeat, "%s: report differs from the spec's first", op)
	}
	switch {
	case tracedOp:
		var st sessionStatus
		if err := c.get(ctx, "/v1/sessions/"+r.id, &st); err != nil {
			stamps = failf(failError, "%v", err)
			break
		}
		l.traced[op.class()] = append(l.traced[op.class()], lat)
		l.runs = append(l.runs, tracedSession{run: r, status: st})
		recordSessionSpans(rec, n*callers+caller+1, r, st, op)
	case traced:
		l.untraced[op.class()] = append(l.untraced[op.class()], lat)
	}
	l.tally.add(repeat, stamps)
}

// sessionStages are the client-observed stages of a session, each ending
// at the first arrival of an event type; the first starts when the
// event stream opened.
var sessionStages = []struct{ metric, until string }{
	{"session.collect_ms", aid.EventTracesCollected},
	{"session.extract_ms", aid.EventPredicatesExtracted},
	{"session.rank_dag_ms", aid.EventDAGBuilt},
	{"session.discover_ms", aid.EventDiscoveryDone},
	{"session.tail_ms", "session-end"},
}

// recordSessionSpans adds a traced session's spans: the client's
// requests, the event-stream stages, and the daemon's admission and run
// intervals from the status stamps.
func recordSessionSpans(rec *recorder, opID int, r sessionRun, st sessionStatus, op serveOp) {
	parent := rec.put(span{Op: opID, Name: "op", Label: op.String(), Start: rec.at(r.sent), End: rec.at(r.done)})
	add := func(name string, a, b time.Time) {
		if !a.IsZero() && !b.IsZero() {
			rec.put(span{Parent: parent, Op: opID, Name: name, Start: rec.at(a), End: rec.at(b)})
		}
	}
	add("post", r.sent, r.posted)
	add("stream", r.posted, r.ended)
	add("report", r.ended, r.done)
	created, _ := time.Parse(time.RFC3339Nano, st.Created)
	started, _ := time.Parse(time.RFC3339Nano, st.Started)
	finished, _ := time.Parse(time.RFC3339Nano, st.Finished)
	add("admission", created, started)
	add("session", started, finished)
	prev := r.opened
	for _, s := range sessionStages {
		at, ok := r.arrivals[s.until]
		if !ok {
			continue
		}
		add(s.metric, prev, at)
		prev = at
	}
}

// serveLayers derives the service metrics from the traced sessions.
func serveLayers(rec *recorder, logs []*callerLog, ing ingestStat, saturations int) map[string]float64 {
	layers := newLayers()
	traced, untraced := map[string][]float64{}, map[string][]float64{}
	var runs []tracedSession
	for _, l := range logs {
		for class, lat := range l.traced {
			traced[class] = append(traced[class], lat...)
		}
		for class, lat := range l.untraced {
			untraced[class] = append(untraced[class], lat...)
		}
		runs = append(runs, l.runs...)
	}
	t := totals(rec.spans)
	perSession := func(ns int64) float64 {
		if len(runs) == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(len(runs))
	}
	layers["admission.wait_ms"] = perSession(t.dur["admission"])
	layers["session.run_ms"] = perSession(t.dur["session"])
	var lifetime, latency int64
	var requests, hits int
	for _, s := range runs {
		created, err1 := time.Parse(time.RFC3339Nano, s.status.Created)
		finished, err2 := time.Parse(time.RFC3339Nano, s.status.Finished)
		if err1 == nil && err2 == nil {
			lifetime += int64(finished.Sub(created))
		}
		latency += int64(s.run.done.Sub(s.run.sent))
		requests += s.status.SchedulerRequests
		hits += s.status.SchedulerCacheHits
	}
	layers["client.overhead_ms"] = perSession(latency - lifetime)
	if requests > 0 {
		layers["memo.hit_ratio"] = float64(hits) / float64(requests)
	}
	layers["rejected"] = float64(saturations)
	if ing.n > 0 {
		layers["ingest.ms"] = float64(ing.dur) / 1e6 / float64(ing.n)
		layers["ingest.mb_per_s"] = float64(ing.bytes) / (1 << 20) / ing.dur.Seconds()
	}
	for _, s := range sessionStages {
		if n := t.count[s.metric]; n > 0 {
			layers[s.metric] = float64(t.dur[s.metric]) / 1e6 / float64(n)
		}
	}
	layers["other.ms"] = perSession(t.self["op"])
	overhead(layers, traced, untraced)
	return layers
}
