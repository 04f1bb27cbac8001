package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
	"rofl/internal/vring"
)

// intraNet is one built intra-ring workload.
type intraNet struct {
	isp     *topology.ISP
	net     *vring.Network
	ids     []ident.ID
	picker  *accessPicker
	genMs   float64
	joinUs  []float64
	joinMsg float64
}

// runIntra joins hosts Zipf-spread over an AS1239-shaped ISP's access
// routers, then routes serial probes from random access routers to
// random joined IDs.
func runIntra(cfg runConfig) (*report, error) {
	rep := newReport()
	l := cfg.tr.lane()
	hosts := cfg.scale.intraHosts
	var joinUs []float64 // every build's join times: the same joins, repeated
	in, err := setUp(rep, 0, cfg.scale.setupReps, func() (*intraNet, error) {
		in, err := buildIntra(cfg.seed, hosts, l)
		if err == nil {
			joinUs = append(joinUs, in.joinUs...)
		}
		return in, err
	}, func(*intraNet) {})
	if err != nil {
		return nil, err
	}
	rep.set("vring.join_msgs", in.joinMsg, "MsgJoin count / joins")
	rep.addOps("joins", int64(hosts*cfg.scale.setupReps), 0)

	// Probe stream: from a Zipf-weighted access router to a uniformly
	// drawn joined ID.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x1e7a))
	nStretch := cfg.scale.intraStretchProbes
	var stretchSum, hopSum float64
	var pairs [][2]int // (router, id index) of the first nStretch probes
	c0, g0 := readCPUTicks(), readGo()
	plain, traced := runPhase(cfg.measure, nStretch, l, rep, func(l *lane, i int) (time.Duration, error) {
		from := in.picker.pick(rng)
		di := rng.Intn(len(in.ids))
		dst := in.ids[di]
		s := l.begin("vring", "Network.Route", int64(i))
		c0 := threadCPU()
		res, err := in.net.Route(from, dst)
		dur := threadCPU() - c0
		l.end(s)
		if err != nil {
			return dur, err
		}
		host, ok := in.net.HostingRouter(dst)
		switch {
		case !res.Delivered:
			return dur, errors.New("not delivered")
		case !ok || res.Final != host:
			return dur, fmt.Errorf("delivered at router %d, %s is hosted at %d", res.Final, dst.Short(), host)
		case res.Stretch < 1:
			return dur, fmt.Errorf("stretch %.3f < 1", res.Stretch)
		}
		if i < nStretch {
			stretchSum += res.Stretch
			hopSum += float64(res.Hops)
			pairs = append(pairs, [2]int{int(from), di})
		}
		return dur, nil
	})
	g1 := readGo()
	rep.lines = append(rep.lines, hostShare(c0, readCPUTicks()))
	all := plain.ok + plain.failed + traced.ok + traced.failed
	rep.addOps("routes", all, plain.failed+traced.failed)
	setRouteMetrics(rep, plain, "serial calls")
	rep.set("stretch_mean", stretchSum/float64(nStretch), fmt.Sprintf("latency stretch over the first %d probes", nStretch))
	rep.set("vring.route_hops_mean", hopSum/float64(nStretch), fmt.Sprintf("first %d probes", nStretch))
	if cfg.tr == nil {
		return rep, nil
	}

	// Per-layer numbers, from the traced half and from replays.
	rep.lines = append(rep.lines, overheadLine(plain, traced))
	gd := g0.to(g1, all)
	setGoMetrics(rep, gd)
	rep.set("topology.gen_ms", in.genMs, "GenISP, last build")
	setPercentiles(rep, "vring.join_us_p50", "vring.join_us_p99", joinUs, "JoinHost over every build")
	var entries, hit float64
	var biggest *vring.Router
	for _, r := range in.net.Routers {
		entries += float64(r.Cache.Len())
		hit += r.Cache.HitRate()
		if biggest == nil || r.Cache.Len() > biggest.Cache.Len() {
			biggest = r
		}
	}
	nr := float64(len(in.net.Routers))
	rep.set("vring.cache_entries_mean", entries/nr, fmt.Sprintf("over %d routers, capacity %d", len(in.net.Routers), biggest.Cache.Cap()))
	rep.set("vring.cache_hit_ratio", hit/nr, "mean of per-router HitRate")

	ins, look := replayPointerCache(biggest.Cache, in.ids, cfg.seed, l)
	rep.set("vring.cache_insert_ns", ins, fmt.Sprintf("refilling the fullest router's %d entries at capacity %d", biggest.Cache.Len(), biggest.Cache.Cap()))
	rep.set("vring.cache_lookup_ns", look, "lookups toward the probed IDs")
	rep.set("linkstate.path_us", replayPaths(in, pairs, l), fmt.Sprintf("Map.Path over the first %d probe pairs", len(pairs)))
	return rep, nil
}

func buildIntra(seed int64, hosts int, l *lane) (*intraNet, error) {
	in := &intraNet{}
	ic := topology.AS1239
	ic.Hosts = hosts
	s := l.begin("topology", "GenISP", 0)
	t0 := time.Now()
	in.isp = topology.GenISP(ic)
	in.genMs = float64(time.Since(t0)) / 1e6
	l.end(s)
	m := sim.NewMetrics()
	opts := vring.DefaultOptions()
	opts.Seed = seed
	s = l.begin("vring", "New", 0)
	in.net = vring.New(in.isp.Graph, m, opts)
	l.end(s)
	in.picker = newAccessPicker(in.isp)
	rng := rand.New(rand.NewSource(seed))
	in.ids = make([]ident.ID, hosts)
	in.joinUs = make([]float64, hosts)
	for i := range in.ids {
		in.ids[i] = ident.FromString(fmt.Sprintf("bench-%d-host-%d", seed, i))
		at := in.picker.pick(rng)
		s := l.begin("vring", "Network.JoinHost", int64(i))
		t0 := time.Now()
		_, err := in.net.JoinHost(in.ids[i], at)
		in.joinUs[i] = float64(time.Since(t0)) / 1e3
		l.end(s)
		if err != nil {
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
	}
	in.joinMsg = float64(m.Counter(vring.MsgJoin)) / float64(hosts)
	return in, nil
}

// accessPicker samples access routers weighted by the ISP's Zipf host
// placement; a router with no hosts keeps weight 1.
type accessPicker struct {
	access []topology.NodeID
	cum    []int
}

func newAccessPicker(isp *topology.ISP) *accessPicker {
	p := &accessPicker{access: isp.Access}
	tot := 0
	for _, h := range isp.HostsAt {
		tot += max(h, 1)
		p.cum = append(p.cum, tot)
	}
	return p
}

func (p *accessPicker) pick(rng *rand.Rand) topology.NodeID {
	x := rng.Intn(p.cum[len(p.cum)-1])
	return p.access[sort.SearchInts(p.cum, x+1)]
}

// replayPointerCache copies a router's cache contents into a fresh cache
// of the same capacity, timing each Insert, then times Lookups from
// random ring positions toward the workload's IDs. It returns the mean
// ns of each.
func replayPointerCache(src *vring.PointerCache, ids []ident.ID, seed int64, l *lane) (insertNs, lookupNs float64) {
	var ptrs []vring.Pointer
	src.Each(func(p vring.Pointer) bool { ptrs = append(ptrs, p); return true })
	rng := rand.New(rand.NewSource(seed ^ 0xcac4e))
	rng.Shuffle(len(ptrs), func(i, j int) { ptrs[i], ptrs[j] = ptrs[j], ptrs[i] })
	c := vring.NewPointerCache(src.Cap())
	s := l.begin("vring", "PointerCache.Insert", 0)
	t0 := time.Now()
	for _, p := range ptrs {
		c.Insert(p)
	}
	insertNs = float64(time.Since(t0)) / float64(max(len(ptrs), 1))
	l.end(s)
	const lookups = 200_000
	pos := make([]ident.ID, 1024)
	for i := range pos {
		pos[i] = ident.Random(rng)
	}
	s = l.begin("vring", "PointerCache.Lookup", 0)
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		c.Lookup(pos[i%len(pos)], ids[i%len(ids)])
	}
	lookupNs = float64(time.Since(t0)) / lookups
	l.end(s)
	return insertNs, lookupNs
}

// replayPaths times linkstate Map.Path from each probe's source router
// to the router hosting its destination and returns the mean µs.
func replayPaths(in *intraNet, pairs [][2]int, l *lane) float64 {
	hosts := make([]topology.NodeID, len(pairs))
	for i, p := range pairs {
		hosts[i], _ = in.net.HostingRouter(in.ids[p[1]])
	}
	s := l.begin("linkstate", "Map.Path", 0)
	t0 := time.Now()
	n := 0
	for i, p := range pairs {
		n += len(in.net.LS.Path(topology.NodeID(p[0]), hosts[i]))
	}
	dur := time.Since(t0)
	l.end(s)
	if len(pairs) == 0 || n == 0 {
		return 0
	}
	return float64(dur) / 1e3 / float64(len(pairs))
}
