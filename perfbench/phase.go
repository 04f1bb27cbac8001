package main

import (
	"fmt"
	"runtime"
	"time"

	"rofl/internal/sim"
)

// traceBlock is how long a traced run spends in each half of its
// alternation between untraced and traced operations.
const traceBlock = 100 * time.Millisecond

// statWindow is the length of the windows an untraced phase is cut
// into. route_per_s and route_us_p50 are medians over the windows, so a
// stall from a neighbouring process or a collection cycle shifts one
// window, not the result.
const statWindow = 500 * time.Millisecond

// phaseStats summarizes the operations of one measured phase. Every
// time is CPU time of the thread that made the calls: for these serial,
// never-blocking calls it equals wall time on an idle host, and unlike
// wall time it leaves out the periods a hypervisor stole the CPU or the
// runtime stopped the thread, which came to 4-30% of a run on the
// 2-core reference VM and tripled a run's wall-clock p99.
type phaseStats struct {
	latUs   []float64 // per-operation CPU time of the call, µs (a uniform sample)
	ok      int64
	failed  int64
	elapsed time.Duration // CPU time
	windows []window      // untraced phases only
}

// window is one statWindow-long (wall time) slice of a phase.
type window struct {
	latUs   []float64
	ok      int64
	elapsed time.Duration // CPU time
}

func (p *phaseStats) perSecond() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ok) / p.elapsed.Seconds()
}

// opFunc performs operation i of a workload's seeded stream, recording
// spans on l (nil when untraced). It returns the thread CPU time of the
// measured call alone, excluding the benchmark's own checks, and an
// error when the operation failed the oracle.
type opFunc func(l *lane, i int) (time.Duration, error)

// runPhase calls op serially for at least d and at least minOps
// operations, on one locked OS thread so its CPU clock measures only
// this loop. With a lane it alternates traceBlock-long blocks of
// untraced and traced operations, so both halves see the same state
// and the tracing overhead is their difference; without one, every
// operation lands in plain and plain is also cut into windows.
// Failures are recorded on rep.
func runPhase(d time.Duration, minOps int, l *lane, rep *report, op opFunc) (plain, traced phaseStats) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC() // every run starts its phase at the same point of the collector's cycle
	start := time.Now()
	blockStart, blockCPU := start, threadCPU()
	winStart, winCPU, winOK := start, blockCPU, int64(0)
	samples := [2]reservoir{newReservoir(phaseSamples, 1), newReservoir(phaseSamples, 2)}
	win := newReservoir(windowSamples, 3)
	inTraced := false
	cur := func() *phaseStats {
		if inTraced {
			return &traced
		}
		return &plain
	}
	closeBlock := func(now time.Time, cpu time.Duration) {
		cur().elapsed += cpu - blockCPU
		blockStart, blockCPU = now, cpu
	}
	closeWindow := func(now time.Time, cpu time.Duration) {
		plain.windows = append(plain.windows, window{latUs: win.vals, ok: plain.ok - winOK, elapsed: cpu - winCPU})
		win = newReservoir(windowSamples, uint64(len(plain.windows))+3)
		winStart, winCPU, winOK = now, cpu, plain.ok
	}
	for i := 0; ; i++ {
		now := time.Now()
		if i >= minOps && now.Sub(start) >= d {
			cpu := threadCPU()
			closeBlock(now, cpu)
			if l == nil && now.Sub(winStart) >= statWindow/2 {
				closeWindow(now, cpu)
			}
			break
		}
		if l == nil && now.Sub(winStart) >= statWindow {
			closeWindow(now, threadCPU())
		}
		if l != nil && now.Sub(blockStart) >= traceBlock {
			closeBlock(now, threadCPU())
			inTraced = !inTraced
		}
		var cl *lane
		if inTraced {
			cl = l
		}
		dur, err := op(cl, i)
		st := cur()
		if err != nil {
			st.failed++
			rep.fail("op %d: %v", i, err)
			continue
		}
		st.ok++
		us := float64(dur) / 1e3
		samples[b2i(inTraced)].add(us)
		if l == nil {
			win.add(us)
		}
	}
	plain.latUs, traced.latUs = samples[0].vals, samples[1].vals
	return plain, traced
}

// Reservoir sizes: enough that a p99 has hundreds of samples beyond
// it, few enough that a phase's memory does not grow with its length
// and show up in peak_rss_mb.
const (
	phaseSamples  = 100_000
	windowSamples = 20_000
)

// reservoir keeps a uniform random sample of at most cap(vals) of the
// values added to it (Vitter's algorithm R).
type reservoir struct {
	vals []float64
	seen uint64
	rng  uint64
}

func newReservoir(n int, seed uint64) reservoir {
	return reservoir{vals: make([]float64, 0, n), rng: seed}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	if j := sim.SplitMix64(&r.rng) % r.seen; j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
}

// setRouteMetrics reports a phase's throughput and latency as the
// end-to-end route metrics. With windows, route_per_s and route_us_p50
// are medians over them; route_us_p99 is always over the whole phase,
// since a window has too few samples beyond its own p99 for a steady
// tail.
func setRouteMetrics(rep *report, p phaseStats, what string) {
	if len(p.windows) == 0 {
		rep.set("route_per_s", p.perSecond(), fmt.Sprintf("%s, %d ok over %.2f CPU-seconds", what, p.ok, p.elapsed.Seconds()))
		setPercentiles(rep, "route_us_p50", "route_us_p99", p.latUs, what)
		return
	}
	var rates, p50s []float64
	minN := -1
	for _, w := range p.windows {
		if w.elapsed > 0 {
			rates = append(rates, float64(w.ok)/w.elapsed.Seconds())
		}
		if len(w.latUs) == 0 {
			continue
		}
		d := newDist(w.latUs)
		p50s = append(p50s, d.at(0.5))
		if minN < 0 || d.n() < minN {
			minN = d.n()
		}
	}
	rep.set("route_per_s", median(rates), fmt.Sprintf("%s; per CPU-second, median of %d windows of %v, range %s", what, len(rates), statWindow, valueRange(rates)))
	rep.set("route_us_p50", median(p50s), fmt.Sprintf("median over %d windows, >=%d samples each, range %s", len(p50s), minN, valueRange(p50s)))
	d := newDist(p.latUs)
	pct, v, beyond, _ := d.tail()
	rep.set("route_us_p99", v, fmt.Sprintf("p%d over the whole phase, n=%d sampled, %d beyond", pct, d.n(), beyond))
}

// overheadLine compares the traced half of a phase with the untraced
// half.
func overheadLine(plain, traced phaseStats) string {
	pd, td := newDist(plain.latUs), newDist(traced.latUs)
	return fmt.Sprintf("tracing overhead: route_per_s %.1f untraced vs %.1f traced (%+.1f%%); route_us_p50 %.3f vs %.3f (%+.3f us)",
		plain.perSecond(), traced.perSecond(), pctChange(plain.perSecond(), traced.perSecond()),
		pd.at(0.5), td.at(0.5), td.at(0.5)-pd.at(0.5))
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to - from) / from * 100
}

// setPercentiles reports the median and tail of samples under two
// metric names, with the sample counts beside them.
func setPercentiles(rep *report, p50Name, tailName string, samples []float64, what string) {
	d := newDist(samples)
	rep.set(p50Name, d.at(0.5), fmt.Sprintf("%s, n=%d", what, d.n()))
	pct, v, beyond, _ := d.tail()
	rep.set(tailName, v, fmt.Sprintf("p%d of n=%d, %d beyond", pct, d.n(), beyond))
}

// valueRange formats the smallest and largest of vs.
func valueRange(vs []float64) string {
	d := newDist(vs)
	if d.n() == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%.4g, %.4g]", d.sorted[0], d.sorted[d.n()-1])
}
