package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rofl/internal/baseline/bgppolicy"
	"rofl/internal/canon"
	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// interFingerBudget is the rofl-60f arm of the paper's Fig 8b.
const interFingerBudget = 60

// interNet is one built inter-canon workload.
type interNet struct {
	g       *topology.ASGraph
	in      *canon.Internet
	ids     []ident.ID
	genMs   float64
	joinMs  []float64
	joinMsg float64
}

// runInter makes recursively multihomed joins into a canon.Internet
// over a generated AS graph, then routes serial probes between random
// joined IDs and compares their AS hops with BGP-policy paths.
func runInter(cfg runConfig) (*report, error) {
	rep := newReport()
	l := cfg.tr.lane()
	sc := cfg.scale
	var joinMs []float64 // every build's join times: the same joins, repeated
	in, err := setUp(rep, 0, sc.setupReps, func() (*interNet, error) {
		in, err := buildInter(cfg.seed, sc.interHosts, sc.interJoins, l)
		if err == nil {
			joinMs = append(joinMs, in.joinMs...)
		}
		return in, err
	}, func(*interNet) {})
	if err != nil {
		return nil, err
	}
	rep.set("canon.join_msgs", in.joinMsg, "canon MsgJoin count / joins")
	rep.addOps("joins", int64(sc.interJoins*sc.setupReps), 0)

	// The probe stream is drawn up front for the stretch probes so the
	// BGP-policy baseline is computed outside the measured phase.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x17e4))
	next := func() (int, int) {
		for {
			a, b := rng.Intn(len(in.ids)), rng.Intn(len(in.ids))
			if a != b {
				return a, b
			}
		}
	}
	type probe struct{ src, dst, bgpHops int }
	bgp := bgppolicy.New(in.g)
	memo := map[[2]topology.ASN]int{}
	probes := make([]probe, sc.interProbes)
	for i := range probes {
		a, b := next()
		sa, _ := in.in.HostingAS(in.ids[a])
		da, _ := in.in.HostingAS(in.ids[b])
		k := [2]topology.ASN{sa, da}
		h, ok := memo[k]
		if !ok {
			h = bgp.Hops(sa, da, nil)
			memo[k] = h
		}
		probes[i] = probe{a, b, h}
	}

	var stretchSum, hopSum float64
	var stretchN int
	c0, g0 := readCPUTicks(), readGo()
	plain, traced := runPhase(cfg.measure, len(probes), l, rep, func(l *lane, i int) (time.Duration, error) {
		var p probe
		if i < len(probes) {
			p = probes[i]
		} else {
			p.src, p.dst = next()
		}
		src, dst := in.ids[p.src], in.ids[p.dst]
		s := l.begin("canon", "Internet.Route", int64(i))
		c0 := threadCPU()
		res, err := in.in.Route(src, dst)
		dur := threadCPU() - c0
		l.end(s)
		if err != nil {
			return dur, err
		}
		want, _ := in.in.HostingAS(dst)
		if !res.Delivered || res.FinalAS != want {
			return dur, fmt.Errorf("delivered=%v at AS %d, %s is hosted at AS %d", res.Delivered, res.FinalAS, dst.Short(), want)
		}
		if i < len(probes) {
			hopSum += float64(res.ASHops)
			if p.bgpHops > 0 {
				stretchSum += float64(res.ASHops) / float64(p.bgpHops)
				stretchN++
			}
		}
		return dur, nil
	})
	g1 := readGo()
	rep.lines = append(rep.lines, hostShare(c0, readCPUTicks()))
	all := plain.ok + plain.failed + traced.ok + traced.failed
	rep.addOps("routes", all, plain.failed+traced.failed)
	setRouteMetrics(rep, plain, "serial calls")
	rep.set("stretch_mean", stretchSum/float64(max(stretchN, 1)),
		fmt.Sprintf("ROFL AS hops / BGP-policy hops over %d of the first %d probes (same-AS pairs excluded)", stretchN, len(probes)))
	rep.set("canon.route_as_hops_mean", hopSum/float64(len(probes)), fmt.Sprintf("first %d probes", len(probes)))
	if cfg.tr == nil {
		return rep, nil
	}

	rep.lines = append(rep.lines, overheadLine(plain, traced))
	setGoMetrics(rep, g0.to(g1, all))
	rep.set("topology.gen_ms", in.genMs, "GenAS, last build")
	rep.set("topology.as_rel_ns", replayASRelations(in.g, l), fmt.Sprintf("Customers and PrimaryProviders over all %d ASes", in.g.NumASes()))
	setPercentiles(rep, "canon.join_ms_p50", "canon.join_ms_p99", joinMs, "Internet.Join over every build")
	return rep, nil
}

func buildInter(seed int64, hosts, joins int, l *lane) (*interNet, error) {
	n := &interNet{}
	gen := topology.DefaultASGen()
	gen.Hosts = hosts
	s := l.begin("topology", "GenAS", 0)
	t0 := time.Now()
	n.g = topology.GenAS(gen)
	n.genMs = float64(time.Since(t0)) / 1e6
	l.end(s)
	m := sim.NewMetrics()
	opts := canon.DefaultOptions()
	opts.FingerBudget = interFingerBudget
	opts.Seed = seed
	s = l.begin("canon", "New", 0)
	n.in = canon.New(n.g, m, opts)
	l.end(s)
	rng := rand.New(rand.NewSource(seed))
	at := placeJoins(hostPool(n.g), joins, rng)
	n.ids = make([]ident.ID, joins)
	n.joinMs = make([]float64, joins)
	for i := range n.ids {
		n.ids[i] = ident.FromString(fmt.Sprintf("bench-%d-inter-%d", seed, i))
		s := l.begin("canon", "Internet.Join", int64(i))
		t0 := time.Now()
		_, err := n.in.Join(n.ids[i], at[i], canon.Multihomed)
		n.joinMs[i] = float64(time.Since(t0)) / 1e6
		l.end(s)
		if err != nil {
			return nil, fmt.Errorf("join %d: %w", i, err)
		}
	}
	n.joinMsg = float64(m.Counter(canon.MsgJoin)) / float64(joins)
	return n, nil
}

// hostPool lists the host-populated ASes, each repeated about
// sqrt(hosts) times, as a sampling pool: the head does not dominate
// every draw while the Zipf skew stays visible.
func hostPool(g *topology.ASGraph) []topology.ASN {
	var pool []topology.ASN
	for a := 0; a < g.NumASes(); a++ {
		asn := topology.ASN(a)
		w := 0
		for h := g.Hosts(asn); (w+1)*(w+1) <= h; w++ {
		}
		for k := 0; k < w; k++ {
			pool = append(pool, asn)
		}
	}
	return pool
}

// placeJoins gives each AS of the sampling pool a share of the n joins
// proportional to its weight there (largest remainder), in a seeded
// order. Drawing each join's AS at random instead made the AS mix, and
// with it the mean route cost, differ by a quarter from seed to seed.
func placeJoins(pool []topology.ASN, n int, rng *rand.Rand) []topology.ASN {
	weight := map[topology.ASN]int{}
	var ases []topology.ASN
	for _, a := range pool {
		if weight[a] == 0 {
			ases = append(ases, a)
		}
		weight[a]++
	}
	type share struct {
		a    topology.ASN
		frac int // remainder of n*weight/len(pool), in units of 1/len(pool)
	}
	shares := make([]share, len(ases))
	var out []topology.ASN
	for i, a := range ases {
		q := n * weight[a] / len(pool)
		for k := 0; k < q; k++ {
			out = append(out, a)
		}
		shares[i] = share{a, n * weight[a] % len(pool)}
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, shares[i].a)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// replayASRelations times ASGraph.Customers and PrimaryProviders over
// every AS, several rounds, and returns the mean ns per call.
func replayASRelations(g *topology.ASGraph, l *lane) float64 {
	const rounds = 50
	calls := 0
	s := l.begin("topology", "ASGraph.Customers+PrimaryProviders", 0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for a := 0; a < g.NumASes(); a++ {
			relSink += len(g.Customers(topology.ASN(a))) + len(g.PrimaryProviders(topology.ASN(a)))
			calls += 2
		}
	}
	dur := time.Since(t0)
	l.end(s)
	return float64(dur) / float64(calls)
}

// relSink keeps the replayed relation lookups from being optimized away.
var relSink int
