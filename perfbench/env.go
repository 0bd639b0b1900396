package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"aid/internal/par"
)

// envRecord is printed with every result, so a noisy host can be told
// apart from a slow program.
type envRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// GOMAXPROCS is the benchmark process's, which runs the program
	// except in serve.
	GOMAXPROCS int `json:"gomaxprocs"`
	// PoolWidth is the pipeline's resolved execution-pool width
	// (WithWorkers(0) resolves to GOMAXPROCS).
	PoolWidth int    `json:"pool_width"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	// Commit is the VCS revision the benchmark was built from, when it
	// was built inside a git checkout; SourceDigest identifies the
	// program's source either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	// StealShare is the host's steal time over the timed phase as a
	// share of all CPU time, from /proc/stat.
	StealShare float64 `json:"steal_share"`
	// DaemonGOMAXPROCS is the GOMAXPROCS `aid serve` ran with (serve).
	DaemonGOMAXPROCS int `json:"daemon_gomaxprocs,omitempty"`
	// ProbeMs is the median time of the host-speed probe over the timed
	// phase, and HostSpeed the host's mean speed relative to the
	// reference host (see probe.go).
	ProbeMs   float64 `json:"probe_ms,omitempty"`
	HostSpeed float64 `json:"host_speed,omitempty"`
}

func newEnvRecord(workload string, seed int64, traced bool, root string) envRecord {
	return envRecord{
		Workload:     workload,
		Seed:         seed,
		Trace:        traced,
		PoolWidth:    par.Workers(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(root),
	}
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the Go sources and go.mod files under root
// (skipping dot-directories such as the build directory), a version
// label that needs no git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		for i, v := range fields[1:9] {
			x, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
			}
			t.total += x
			if i == 7 {
				t.steal = x
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no cpu line")
}

// stealShare is the steal share between two readings (0 when the host
// does not report one).
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// rssMB reads the resident set size of a process ("self" for this one)
// from /proc/<pid>/statm.
func rssMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0, err
	}
	return parseStatmRSS(string(data), os.Getpagesize())
}

// parseStatmRSS takes statm's second field, the resident page count, to
// MB.
func parseStatmRSS(statm string, pageSize int) (float64, error) {
	f := strings.Fields(statm)
	if len(f) < 2 {
		return 0, fmt.Errorf("statm %q: no resident field", statm)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return float64(pages) * float64(pageSize) / (1 << 20), nil
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}
