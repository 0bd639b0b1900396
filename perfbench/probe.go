package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host's speed drifts by tens of percent over tens of seconds, and
// steal time does not show it: the process keeps its CPU and runs
// slower. Raw op latencies then spread by a fifth to a third across runs
// (the median of a run lands between a fast and a slow cluster), which
// no run length within the time budget averages away. What tracks the
// drift is allocation-heavy work — maps, slices, sorting, encoding, GC,
// what the program itself does — while a pure ALU loop stays put. So a
// run times a fixed piece of such work, owned by the benchmark, every
// probeEvery, and states latency, throughput and set-up time at the
// reference host speed: each op's time is scaled by probeRefMs over the
// probe's median time around that op. On the 2-vCPU host the bounds
// were set on, the ratio of a six-study pass to the probe moved under 1%
// across 30 s windows while the pass itself moved 16%. The table prints
// the raw figures beside the scaled ones, and the env line the probe's
// median.

const (
	probeEvery = 250 * time.Millisecond
	// probeRefMs is the probe's typical time on the reference host.
	probeRefMs = 2.6
	// probeWindow: an op is scaled by the probes taken within this
	// distance of its start.
	probeWindow = 2 * time.Second
)

type probeRecord struct {
	A string
	B []int
	C map[string]int
}

var probeSink int

// probeWork is the fixed reference work: about 2.6 ms on the reference
// host.
func probeWork() {
	m := map[string]int{}
	var recs []probeRecord
	for i := range 3000 {
		k := strconv.Itoa(i * 7919)
		m[k] = i
		recs = append(recs, probeRecord{A: k, B: []int{i, i + 1, i + 2}, C: map[string]int{k: i}})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].A < recs[j].A })
	b, _ := json.Marshal(recs[:500])
	probeSink += len(b) + len(m)
}

// prober times probeWork in a helper process (this binary with
// --probe), so the probe's allocations never share a heap, a GC cycle
// or a peak RSS with the program, and keeps the probe times in order.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader

	mu    sync.Mutex
	at    []time.Time
	ms    []float64
	spent time.Duration
	err   error
}

func startProber() (*prober, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--probe")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start probe helper: %w", err)
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// close stops the helper and waits for it.
func (p *prober) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// serveProbes is the helper's side: one probe per request line, its
// time in nanoseconds as the reply line. The time is the CPU time the
// probe consumed, not its wall time: the drift shows in both, but under
// serve the helper can share a vCPU with the busy daemon, and time spent
// waiting for that vCPU is the daemon's load, not the host's speed.
func serveProbes(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadString('\n'); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		t0, err := cpuTime()
		if err != nil {
			return err
		}
		probeWork()
		t1, err := cpuTime()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, (t1 - t0).Nanoseconds()); err != nil {
			return err
		}
	}
}

// cpuTime is the CPU time this process has consumed.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// probe times one probe; the first failure is kept in p.err and ends
// probing.
func (p *prober) probe() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	t0 := time.Now()
	var ns int64
	_, err := io.WriteString(p.in, "\n")
	if err == nil {
		var line string
		if line, err = p.out.ReadString('\n'); err == nil {
			ns, err = strconv.ParseInt(strings.TrimSpace(line), 10, 64)
		}
	}
	if err != nil {
		p.err = fmt.Errorf("probe helper: %w", err)
		return
	}
	p.at = append(p.at, t0)
	p.ms = append(p.ms, float64(ns)/1e6)
	p.spent += time.Since(t0)
}

// due probes when probeEvery has passed since the last probe; a single
// caller calls it between ops.
func (p *prober) due() {
	p.mu.Lock()
	stale := len(p.at) == 0 || time.Since(p.at[len(p.at)-1]) >= probeEvery
	p.mu.Unlock()
	if stale {
		p.probe()
	}
}

// every probes every probeEvery until stop is closed.
func (p *prober) every(stop <-chan struct{}) {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		p.probe()
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// timeSpent is the time spent waiting on probes so far.
func (p *prober) timeSpent() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spent
}

// scale takes a time measured at t to the reference host speed:
// probeRefMs over the median probe within probeWindow of t, or over the
// nearest five probes when fewer than three lie that close.
func (p *prober) scale(t time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.at) == 0 {
		return 1
	}
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(t.Add(-probeWindow)) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(t.Add(probeWindow)) })
	if hi-lo < 3 {
		c := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(t) })
		lo, hi = max(0, c-3), min(len(p.at), c+2)
	}
	return probeRefMs / median(p.ms[lo:hi])
}

// between summarizes the probes taken in [from, to]: their median time,
// and the host's mean speed relative to the reference (the mean of
// probeRefMs over each probe time), which scales throughput.
func (p *prober) between(from, to time.Time) (medianMs, speed float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var window []float64
	for i, t := range p.at {
		if !t.Before(from) && !t.After(to) {
			window = append(window, p.ms[i])
		}
	}
	if len(window) == 0 {
		return 0, 1
	}
	for _, x := range window {
		speed += probeRefMs / x
	}
	return median(window), speed / float64(len(window))
}
