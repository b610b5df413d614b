package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp names the machine and build a row was measured on. Numbers
// from different stamps are not comparable.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// JournalFS is the filesystem under the journal directory.
	JournalFS string `json:"journal_fs"`
	// Transport states what the latencies do and do not contain.
	Transport string `json:"transport"`
}

const transportNote = "loopback-in-process, no real link: latency is CPU and scheduling only"

func machineStamp(journalDir string) stamp {
	return stamp{
		Commit:     commitID(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		JournalFS:  fsType(journalDir),
		Transport:  transportNote,
	}
}

// commitID asks git; a checkout that is no repository is "unknown".
func commitID() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// fsType finds the mount that holds dir in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// windowCost is what one metered window cost.
type windowCost struct {
	wall, cpu time.Duration
	// gen is the part of wall the generator spent building inputs.
	gen    time.Duration
	cycles int
	rssMB  float64 // resident set when the window ended
	// units is what each unit of the reference work timed right after
	// it took.
	units []time.Duration
}

// meter accumulates process cost over the metered windows of a run:
// wall time, user+system CPU, heap allocation and collector activity
// in total, and each window's own figures.
type meter struct {
	ref *reference

	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
	windows []windowCost

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func newMeter() (*meter, error) {
	ref, err := newReference()
	if err != nil {
		return nil, fmt.Errorf("reference work: %w", err)
	}
	return &meter{ref: ref}, nil
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

// stop ends the window start began; cycles completed in it, gen of
// which was generator time. Then, off the meter, it times the reference
// work.
func (m *meter) stop(cycles int, gen time.Duration) {
	w := windowCost{wall: time.Since(m.t0), cpu: processCPU() - m.cpu0, gen: gen, cycles: cycles}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.rssMB = statusMB("VmRSS:")
	w.units = m.ref.time()
	m.windows = append(m.windows, w)
	m.wall += w.wall
	m.cpu += w.cpu
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.gcs += ms.NumGC - m.ms0.NumGC
	m.gcPause += time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
}

// slowdown is how much slower than nominal the machine ran reference
// work of about span's length during the run: the median over the
// windows.
func (m *meter) slowdown(span time.Duration) float64 {
	return m.overWindows(func(w windowCost) float64 { return slowdownAt(w.units, span) })
}

// overWindows is the median over the windows that completed a cycle of
// what f reads off each.
func (m *meter) overWindows(f func(windowCost) float64) float64 {
	vals := make([]float64, 0, len(m.windows))
	for _, w := range m.windows {
		if w.cycles > 0 {
			vals = append(vals, f(w))
		}
	}
	return median(vals)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads one memory line of /proc/self/status, "VmRSS:" (the
// resident set now) or "VmHWM:" (its peak), in MiB; 0 where there is no
// such file. getrusage's ru_maxrss would do for the peak, except that it
// survives exec, so under `go run` it reports the go tool's own peak.
func statusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
