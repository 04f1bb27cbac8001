package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostRecord names the machine a result was measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	Affinity   string `json:"cpu_affinity"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Affinity:   affinity(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}

// peakRSSMB is the process's VmHWM (peak resident set) in MB (10^6
// bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) != 2 || fs[1] != "kB" {
				return 0, fmt.Errorf("parsing VmHWM %q", rest)
			}
			kb, err := strconv.ParseFloat(fs[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// threadCPU is the calling OS thread's CPU time so far; the caller
// holds runtime.LockOSThread across the readings it compares.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goSnapshot holds the runtime counters whose deltas the benchmark
// reports over a measured phase.
type goSnapshot struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGo() goSnapshot {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // PauseTotalNs is exact; the pause histogram is not
	return goSnapshot{cpu: cpuTime(), allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

// goDelta is the runtime's cost over a phase of ops operations.
type goDelta struct {
	cpuS       float64
	allocPerOp float64
	gcCycles   float64
	gcPauseMs  float64
}

func (a goSnapshot) to(b goSnapshot, ops int64) goDelta {
	d := goDelta{cpuS: (b.cpu - a.cpu).Seconds(), gcCycles: float64(b.gcCycles - a.gcCycles), gcPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6}
	if ops > 0 {
		d.allocPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	return d
}

// cpuTicks is the machine-wide /proc/stat "cpu" line: user, nice,
// system, idle, iowait, irq, softirq, steal.
type cpuTicks [8]uint64

func readCPUTicks() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 0; i < len(t) && i+1 < len(f); i++ {
		t[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return t
}

// hostShare describes how the machine's CPU time was spent between two
// readings: a run measured while the hypervisor stole a large share, or
// while other processes kept the CPUs busy, is not comparable with a
// quiet one.
func hostShare(a, b cpuTicks) string {
	var d cpuTicks
	var tot uint64
	for i := range d {
		d[i] = b[i] - a[i]
		tot += d[i]
	}
	if tot == 0 {
		return "host cpu: no /proc/stat"
	}
	pct := func(v uint64) float64 { return float64(v) / float64(tot) * 100 }
	return fmt.Sprintf("host cpu over the measured phase: user %.1f%% system %.1f%% softirq %.1f%% idle %.1f%% steal %.1f%%",
		pct(d[0]+d[1]), pct(d[2]), pct(d[5]+d[6]), pct(d[3]+d[4]), pct(d[7]))
}

// setGoMetrics reports the runtime's cost over the measured phase.
func setGoMetrics(rep *report, d goDelta) {
	rep.set("go.cpu_s", d.cpuS, "process CPU over the measured phase, every thread")
	rep.set("go.alloc_bytes_per_op", d.allocPerOp, "over the measured phase")
	rep.set("go.gc_cycles", d.gcCycles, "over the measured phase")
	rep.set("go.gc_pause_ms", d.gcPauseMs, "over the measured phase")
}

// pinToOneCPU confines the process to one CPU, the lowest it may run
// on: GOMAXPROCS 1, and every thread's affinity set to that CPU (threads
// the runtime creates later inherit it from their creator).
func pinToOneCPU() error {
	runtime.GOMAXPROCS(1)
	var set [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := 0; i < len(set)*64 && cpu < 0; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("empty CPU affinity set")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	// Two passes: a thread started by a not-yet-pinned one during the
	// first is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}

// affinity is the process's Cpus_allowed_list from /proc/self/status.
func affinity() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
