package main

import (
	"errors"
	"fmt"
	"time"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// compactShards is the sharded engine's shard count: one per core of
// the 2-core reference host.
const compactShards = 2

// compactNet is one built and converged compact ring.
type compactNet struct {
	r        *vring.CompactRing
	genMs    float64
	runWall  time.Duration
	converge sim.Time
}

// runCompact converges a compact sharded ring on an AS1221-shaped ISP,
// then makes serial probes between random members.
func runCompact(cfg runConfig) (*report, error) {
	rep := newReport()
	l := cfg.tr.lane()
	sc := cfg.scale
	cn, err := setUp(rep, 0, sc.setupReps, func() (*compactNet, error) { return buildCompact(cfg.seed, sc.compactHosts, l), nil }, func(*compactNet) {})
	if err != nil {
		return nil, err
	}
	r := cn.r
	members := uint64(r.Members())
	state := uint64(cfg.seed) ^ 0xc0ac7
	nStretch := sc.compactProbes
	var stretchSum, hopSum float64
	c0, g0 := readCPUTicks(), readGo()
	plain, traced := runPhase(cfg.measure, nStretch, l, rep, func(l *lane, i int) (time.Duration, error) {
		from := ident.Handle(sim.SplitMix64(&state) % members)
		to := ident.Handle(sim.SplitMix64(&state) % (members - 1))
		if to >= from {
			to++ // never probe a member from itself
		}
		dst := r.IDOf(to)
		s := l.begin("vring", "CompactRing.Probe", int64(i))
		c0 := threadCPU()
		res, err := r.Probe(from, dst)
		dur := threadCPU() - c0
		l.end(s)
		switch {
		case err != nil:
			return dur, err
		case !res.Delivered:
			return dur, errors.New("not delivered")
		case res.Stretch < 1:
			return dur, fmt.Errorf("stretch %.3f < 1", res.Stretch)
		}
		if i < nStretch {
			stretchSum += res.Stretch
			hopSum += float64(res.PhysHops)
		}
		return dur, nil
	})
	g1 := readGo()
	rep.lines = append(rep.lines, hostShare(c0, readCPUTicks()))
	all := plain.ok + plain.failed + traced.ok + traced.failed
	rep.addOps("probes", all, plain.failed+traced.failed)
	setRouteMetrics(rep, plain, "serial calls")
	rep.set("stretch_mean", stretchSum/float64(nStretch), fmt.Sprintf("latency stretch over the first %d probes", nStretch))
	var events int64
	ms := r.Metrics()
	for _, name := range ms.CounterNames() {
		events += ms.Counter(name)
	}
	rep.set("sim.events", float64(events), "CompactRing.Metrics() message total")
	rep.set("sim.converge_vms", float64(cn.converge), "virtual ms returned by Run")
	rep.set("compact.probe_hops_mean", hopSum/float64(nStretch), fmt.Sprintf("PhysHops, first %d probes", nStretch))
	f := r.Footprint()
	rep.set("compact.accounted_mb", float64(f.Total())/1e6, fmt.Sprintf("Footprint().Total() for %d hosts; compare peak_rss_mb", f.Hosts))
	if cfg.tr == nil {
		return rep, nil
	}

	rep.lines = append(rep.lines, overheadLine(plain, traced))
	setGoMetrics(rep, g0.to(g1, all))
	rep.set("topology.gen_ms", cn.genMs, "GenISP, last build")
	rep.set("sim.events_per_s", float64(events)/cn.runWall.Seconds(), fmt.Sprintf("over Run's %.3fs wall time, %d shards", cn.runWall.Seconds(), compactShards))
	pm := r.ProbeMetrics()
	hit, miss := pm.Counter(vring.CtrCompactCacheHit), pm.Counter(vring.CtrCompactCacheMiss)
	rep.set("compact.cache_hit_ratio", float64(hit)/float64(max(hit+miss, 1)), fmt.Sprintf("%d hits, %d misses over all probes", hit, miss))
	return rep, nil
}

func buildCompact(seed int64, hosts int, l *lane) *compactNet {
	cn := &compactNet{}
	s := l.begin("topology", "GenISP", 0)
	t0 := time.Now()
	isp := topology.GenISP(topology.AS1221)
	cn.genMs = float64(time.Since(t0)) / 1e6
	l.end(s)
	rc := vring.DefaultCompactConfig()
	rc.Hosts = hosts
	rc.EphemeralEvery = 100
	rc.Shards = compactShards
	rc.Seed = seed
	s = l.begin("vring", "NewCompactRing", 0)
	cn.r = vring.NewCompactRing(isp, rc)
	l.end(s)
	// Run drives sim.ShardedEngine to convergence: its time is the
	// engine's and the protocol handlers' it dispatches to.
	s = l.begin("sim", "CompactRing.Run", 0)
	t0 = time.Now()
	cn.converge = cn.r.Run()
	cn.runWall = time.Since(t0)
	l.end(s)
	return cn
}
