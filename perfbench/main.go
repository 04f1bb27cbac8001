// Command perfbench is the repository benchmark: it runs one seeded
// workload against the simulator or the live overlay, checks that every
// routed message reached its correct owner, and prints every metric by
// name with its unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	go build -o perfbench . && ./perfbench --workload intra-ring --seed 1 --seconds 8 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) records spans around every call into a layer, writes
// them to the -out directory, and reports the per-layer metrics, each
// layer's self time and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	measure time.Duration
	tr      *tracer // nil in an untraced run
	out     string  // directory the trace file goes to
	scale   scale
}

// scale sizes the workloads; tests shrink it. The *Probes fields are
// how many leading operations of the seeded stream the deterministic
// outputs (stretch, hops) are averaged over; a run makes at least that
// many.
type scale struct {
	setupReps, liveSetupReps       int // builds per run; setup_s is their median
	intraHosts, intraStretchProbes int
	interHosts, interJoins         int
	interProbes                    int
	compactHosts, compactProbes    int
	liveNodes, liveRate            int // nodes; open-loop packets/s
	liveSenders, liveWindow        int // closed-loop senders; packets in flight each
	liveOpenShare                  int // percent of the measured phase run open loop
}

var defaultScale = scale{
	intraHosts: 5000, intraStretchProbes: 5000,
	interHosts: 1200, interJoins: 300, interProbes: 2000,
	compactHosts: 100000, compactProbes: 50000,
	liveNodes: 64, liveRate: 5000, liveSenders: 2, liveWindow: 16, liveOpenShare: 25,
	setupReps: 3, liveSetupReps: 21,
}

type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
	// extra is printed in the run record (shard count, loopback note).
	extra string
	// oneCPU confines the run to one CPU (see pinToOneCPU).
	oneCPU bool
}

var workloads = []workload{
	{"intra-ring", runIntra, "AS1239-shaped ISP, vring.Network, serial routes", false},
	{"inter-canon", runInter, "GenAS Internet, canon.Internet FingerBudget 60, serial routes", false},
	{"compact-ring", runCompact, fmt.Sprintf("AS1221-shaped ISP, vring.CompactRing, shards=%d", compactShards), false},
	// The live nodes share one CPU: spread over the two vCPUs of the
	// reference VM, every hop's wake-up of the other vCPU went through
	// the hypervisor, which doubled Node.Send's median, tripled its p99
	// and made both swing by up to 50% between runs.
	{"live-udp", runLive, "in-process nodes on 127.0.0.1 UDP: loopback, not a real link; one CPU", true},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: intra-ring, inter-canon, compact-ring or live-udp")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 8, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory trace files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (intra-ring, inter-canon, compact-ring, live-udp), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), out: *out, scale: defaultScale}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	if w.oneCPU {
		if err := pinToOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	host := readHost()
	rec, _ := json.Marshal(struct {
		hostRecord
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    int     `json:"trace"`
		Note     string  `json:"note"`
	}{host, w.name, *seed, *seconds, *traced, w.extra})
	fmt.Printf("# run %s\n", rec)

	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.set("peak_rss_mb", rss, "VmHWM of this process")
	if acc, ok := rep.values["compact.accounted_mb"]; ok {
		rep.lines = append(rep.lines, fmt.Sprintf("memory: accounted %.1f MB vs peak RSS %.1f MB (%.2fx)", acc, rss, rss/acc))
	}
	if cfg.tr != nil {
		if err := writeTrace(cfg, w.name, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	res, err := assemble(rep, cfg.tr != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printLog(rep, cfg.tr != nil)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble builds the result line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func assemble(rep *report, traced bool) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	for _, op := range rep.ops {
		res.Attempted += op.attempted
		res.Failed += op.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// printLog prints every measured metric with its unit and notes, the
// operation counts and the first failures, before the result line.
func printLog(rep *report, traced bool) {
	for _, op := range rep.ops {
		fmt.Printf("ops %-8s attempted=%d failed=%d\n", op.kind, op.attempted, op.failed)
	}
	for _, e := range rep.errs {
		fmt.Printf("failure: %s\n", e)
	}
	show := func(title string, defs []metricDef, naOK bool) {
		fmt.Printf("%s\n", title)
		for _, d := range defs {
			v, ok := rep.values[d.name]
			switch {
			case ok:
				fmt.Printf("  %-30s %14.4f %-7s %s\n", d.name, v, d.unit, rep.notes[d.name])
			case naOK:
				fmt.Printf("  %-30s %14s %-7s\n", d.name, "n/a", d.unit)
			}
		}
	}
	show("end-to-end:", endToEnd, false)
	if traced {
		show("per-layer:", perLayer, true)
	} else {
		show("per-layer (those this untraced run measures):", perLayer, false)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
}

// writeTrace writes the run's spans under cfg's out directory and adds
// each layer's self time to the log.
func writeTrace(cfg runConfig, name string, rep *report) error {
	byLayer := map[string]spanTotal{}
	var names []spanKey
	self := cfg.tr.selfTimes()
	for k, v := range self {
		t := byLayer[k.layer]
		t.spans += v.spans
		t.selfNs += v.selfNs
		byLayer[k.layer] = t
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].layer+names[i].name < names[j].layer+names[j].name })
	layers := make([]string, 0, len(byLayer))
	for k := range byLayer {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	var b strings.Builder
	b.WriteString("layer self time (ms/spans):")
	for _, k := range layers {
		fmt.Fprintf(&b, " %s=%.1f/%d", k, float64(byLayer[k].selfNs)/1e6, byLayer[k].spans)
	}
	rep.lines = append(rep.lines, b.String())
	for _, k := range names {
		v := self[k]
		rep.lines = append(rep.lines, fmt.Sprintf("  span %s.%s: %d spans, self %.1f ms, mean %.3f us",
			k.layer, k.name, v.spans, float64(v.selfNs)/1e6, float64(v.selfNs)/1e3/float64(v.spans)))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", name, cfg.seed))
	n, dropped, err := cfg.tr.write(path)
	if err != nil {
		return err
	}
	rep.lines = append(rep.lines, fmt.Sprintf("trace: %d spans written to %s (%d past the per-lane cap counted but not written)", n, path, dropped))
	return nil
}

// setUp builds a workload warm+reps times from the same inputs,
// releasing each build before the next, and keeps the last. setup_s is
// the median process CPU time of the last reps builds: it counts the
// work of every goroutine, a sharded engine's included, but not the
// time a shared host's hypervisor stole or a woken vCPU waited for, which
// moved wall-clock set-up times by up to 50% between runs on the
// reference VM. The wall times are in the note.
func setUp[T any](rep *report, warm, reps int, build func() (T, error), release func(T)) (T, error) {
	var walls, cpus []float64
	var last T
	for i := 0; i < warm+reps; i++ {
		if i > 0 {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		if i >= warm {
			walls = append(walls, time.Since(t0).Seconds())
			cpus = append(cpus, (cpuTime() - c0).Seconds())
		}
		last = v
	}
	rep.set("setup_s", median(cpus), fmt.Sprintf("process CPU, median of %d builds after %d untimed; wall %s", reps, warm, fmtList(walls)))
	return last, nil
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
