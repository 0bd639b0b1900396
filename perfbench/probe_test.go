package main

import (
	"bufio"
	"io"
	"math"
	"testing"
	"time"
)

func TestProbeHelperRoundTrip(t *testing.T) {
	reqR, reqW := io.Pipe()
	repR, repW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveProbes(reqR, repW)
		repW.Close()
	}()
	p := &prober{in: reqW, out: bufio.NewReader(repR)}
	for range 3 {
		p.probe()
	}
	reqW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.err != nil || len(p.ms) != 3 || p.ms[0] <= 0 || p.spent <= 0 {
		t.Fatalf("err %v, probes %v, spent %v", p.err, p.ms, p.spent)
	}
	p.probe() // the helper is gone: the failure is kept, not hidden
	if p.err == nil || len(p.ms) != 3 {
		t.Fatalf("after the helper exited: err %v, probes %v", p.err, p.ms)
	}
}

func TestProbeScalesToTheReferenceSpeed(t *testing.T) {
	t0 := time.Now()
	p := &prober{}
	// Ten seconds at the reference speed, then ten at half of it.
	for i := range 80 {
		p.at = append(p.at, t0.Add(time.Duration(i)*probeEvery))
		if i < 40 {
			p.ms = append(p.ms, probeRefMs)
		} else {
			p.ms = append(p.ms, 2*probeRefMs)
		}
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{3 * time.Second, 1},
		{17 * time.Second, 0.5},
		{-time.Minute, 1}, // before the first probe: the nearest ones
		{time.Hour, 0.5},  // after the last
	} {
		if got := p.scale(t0.Add(tc.at)); got != tc.want {
			t.Errorf("scale at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	med, speed := p.between(t0, t0.Add(time.Hour))
	if math.Abs(med-1.5*probeRefMs) > 1e-9 || speed != 0.75 {
		t.Errorf("median %v speed %v, want %v and 0.75", med, speed, 1.5*probeRefMs)
	}
	if _, speed := p.between(t0.Add(-time.Hour), t0.Add(-time.Minute)); speed != 1 {
		t.Errorf("no probes must mean reference speed, got %v", speed)
	}
}
