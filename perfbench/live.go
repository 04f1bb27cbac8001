package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rofl"
	"rofl/internal/ident"
	"rofl/internal/netem"
	"rofl/internal/overlay"
	"rofl/internal/proto"
	"rofl/internal/telemetry"
	"rofl/internal/wire"
)

const (
	livePayload = 16 // bytes: sender lane, seq, destination index, checksum
	// liveDeadline is how long a packet may take to arrive before the
	// oracle counts it lost.
	liveDeadline = time.Second
	// liveWarmBuilds are untimed builds before the timed ones: the first
	// builds in a process run several times slower while the runtime
	// grows its stacks, heap and descriptor table.
	liveWarmBuilds = 3
	// liveReadyTimeout bounds the wait for the ring to converge.
	liveReadyTimeout = 30 * time.Second
	// Counter names of the overlay's telemetry catalog.
	metricForward   = "rofl_overlay_forward_total"
	metricDelivered = "rofl_overlay_delivered_total"
)

// liveRing is one set of in-process overlay nodes joined into a ring.
type liveRing struct {
	nodes []*overlay.Node
	regs  []*telemetry.Registry
	ids   []ident.ID
	byID  map[ident.ID]int
	addrs []string
}

func (lr *liveRing) close() {
	for _, n := range lr.nodes {
		n.Close()
	}
}

// buildLive binds n nodes on loopback UDP with the default node
// configuration (stabilize and liveness loops on), bootstraps the first
// and joins the rest through it, and waits until every node's successor
// and predecessor are its neighbours in sorted ID order.
func buildLive(seed int64, n int, l *lane) (*liveRing, error) {
	lr := &liveRing{byID: map[ident.ID]int{}}
	for i := 0; i < n; i++ {
		id := ident.FromString(fmt.Sprintf("bench-%d-node-%d", seed, i))
		cfg := rofl.DefaultNodeConfig()
		reg := telemetry.NewRegistry()
		cfg.Registry = reg
		s := l.begin("overlay", "New", int64(i))
		node, err := rofl.NewOverlayNode(id, cfg)
		l.end(s)
		if err != nil {
			lr.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		lr.nodes = append(lr.nodes, node)
		lr.regs = append(lr.regs, reg)
		lr.ids = append(lr.ids, id)
		lr.addrs = append(lr.addrs, node.Addr())
		lr.byID[id] = i
	}
	lr.nodes[0].Bootstrap()
	for i := 1; i < n; i++ {
		s := l.begin("overlay", "Node.Join", int64(i))
		err := lr.nodes[i].Join(lr.nodes[0].Addr(), 5*time.Second)
		l.end(s)
		if err != nil {
			lr.close()
			return nil, fmt.Errorf("join node %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(liveReadyTimeout)
	for {
		why := lr.unconverged()
		if why == "" {
			return lr, nil
		}
		if time.Now().After(deadline) {
			lr.close()
			return nil, fmt.Errorf("ring did not converge in %v: %s", liveReadyTimeout, why)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// unconverged names a node whose successor is not the next ID in
// sorted order or whose predecessor is not the previous one, or returns
// "" when there is none. Only the group's head is checked: repair-probe
// replies refill the rest of a successor group from far-away nodes, so
// the full group is never stable.
func (lr *liveRing) unconverged() string {
	sorted := append([]ident.ID(nil), lr.ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for pos, id := range sorted {
		node := lr.nodes[lr.byID[id]]
		succ, _, ok := node.Successor()
		if !ok || succ != sorted[(pos+1)%len(sorted)] {
			return fmt.Sprintf("node %d successor is not the next ID", lr.byID[id])
		}
		pred, _, ok := node.Predecessor()
		if !ok || pred != sorted[(pos+len(sorted)-1)%len(sorted)] {
			return fmt.Sprintf("node %d predecessor is not the previous ID", lr.byID[id])
		}
	}
	return ""
}

// sendRec is the oracle's record of one sent packet.
type sendRec struct {
	src, dst int32
	traced   bool
	due      int64 // ns since the tracker epoch the packet was due (open loop) or sent (closed loop)
	sendNs   int64 // Node.Send call, thread CPU time
	recvAt   atomic.Int64
	count    atomic.Int32
}

// liveTracker is the live workload's oracle: every payload names its
// sender lane, sequence number and destination node and carries a
// checksum, and must arrive exactly once, at its destination node,
// within liveDeadline.
type liveTracker struct {
	epoch  time.Time
	key    uint32
	srcIDs []ident.ID
	lanes  []recLane // one per sender; lane i's sender alone appends and advances issued[i]
	issued []atomic.Int64

	mu     sync.Mutex
	errs   []string
	failed atomic.Int64
}

// recChunk and maxRecChunks size a lane's record log: chunks are
// allocated as packets are sent, so the oracle's memory follows the
// packets actually sent and stays out of peak_rss_mb.
const (
	recChunk     = 8192
	maxRecChunks = 1024
)

// recLane is one sender's append-only record log. A chunk is stored
// before the first sequence number in it is published through issued,
// so a reader that loaded issued may read the chunk pointer.
type recLane struct {
	chunks []*[recChunk]sendRec
}

func (r *recLane) at(seq int64) *sendRec { return &r.chunks[seq/recChunk][seq%recChunk] }

func newLiveTracker(seed int64, ids []ident.ID, lanes int) *liveTracker {
	t := &liveTracker{epoch: time.Now(), key: uint32(seed) * 2654435761, srcIDs: ids}
	t.lanes = make([]recLane, lanes)
	for i := range t.lanes {
		t.lanes[i].chunks = make([]*[recChunk]sendRec, maxRecChunks)
	}
	t.issued = make([]atomic.Int64, lanes)
	return t
}

func (t *liveTracker) now() int64 { return int64(time.Since(t.epoch)) }

// next reserves lane ln's next record; ok is false when it is full.
func (t *liveTracker) next(ln int) (seq int, rec *sendRec, ok bool) {
	n := t.issued[ln].Load()
	if n >= recChunk*maxRecChunks {
		return 0, nil, false
	}
	lr := &t.lanes[ln]
	if lr.chunks[n/recChunk] == nil {
		lr.chunks[n/recChunk] = new([recChunk]sendRec)
	}
	return int(n), lr.at(n), true
}

// commit publishes a record filled by lane ln's sender.
func (t *liveTracker) commit(ln int) { t.issued[ln].Add(1) }

func (t *liveTracker) payload(buf []byte, ln, seq int, dst int32) []byte {
	buf = buf[:livePayload]
	binary.BigEndian.PutUint32(buf[0:], uint32(ln))
	binary.BigEndian.PutUint32(buf[4:], uint32(seq))
	binary.BigEndian.PutUint32(buf[8:], uint32(dst))
	binary.BigEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12])^t.key)
	return buf
}

// deliver checks one delivery at node at. It returns the packet's lane
// for a valid first delivery, and an error (also counted as a failed
// operation) for a corrupt, mis-delivered or duplicated packet.
func (t *liveTracker) deliver(at int, src ident.ID, p []byte) (int, error) {
	err := t.check(at, src, p)
	if err != nil {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
		t.mu.Unlock()
		return -1, err
	}
	return int(binary.BigEndian.Uint32(p[0:])), nil
}

func (t *liveTracker) check(at int, src ident.ID, p []byte) error {
	if len(p) != livePayload {
		return fmt.Errorf("payload of %d bytes at node %d", len(p), at)
	}
	if crc32.ChecksumIEEE(p[:12])^t.key != binary.BigEndian.Uint32(p[12:]) {
		return fmt.Errorf("bad checksum at node %d", at)
	}
	ln, seq := int(binary.BigEndian.Uint32(p[0:])), int64(binary.BigEndian.Uint32(p[4:]))
	if ln >= len(t.lanes) || seq >= t.issued[ln].Load() {
		return fmt.Errorf("unknown packet %d/%d at node %d", ln, seq, at)
	}
	rec := t.lanes[ln].at(seq)
	if int(rec.dst) != at || int32(binary.BigEndian.Uint32(p[8:])) != rec.dst {
		return fmt.Errorf("packet %d/%d for node %d delivered at node %d", ln, seq, rec.dst, at)
	}
	if src != t.srcIDs[rec.src] {
		return fmt.Errorf("packet %d/%d names source %s, sent by node %d", ln, seq, src.Short(), rec.src)
	}
	if rec.count.Add(1) > 1 {
		return fmt.Errorf("packet %d/%d delivered twice", ln, seq)
	}
	rec.recvAt.Store(t.now())
	return nil
}

// settle counts, over every issued packet, those that never arrived or
// arrived after the deadline. Call it once no more deliveries can come.
func (t *liveTracker) settle() (sent, lost int64) {
	for ln := range t.lanes {
		n := t.issued[ln].Load()
		sent += n
		for i := int64(0); i < n; i++ {
			r := t.lanes[ln].at(i)
			if r.count.Load() == 0 || r.recvAt.Load()-r.due > int64(liveDeadline) {
				lost++
			}
		}
	}
	return sent, lost
}

// runLive drives 16-byte packets over an in-process loopback UDP ring:
// an open-loop phase at a fixed rate for one-way delivery latency, then
// a closed-loop phase with a fixed window per sender for throughput and
// Node.Send latency.
func runLive(cfg runConfig) (*report, error) {
	rep := newReport()
	l := cfg.tr.lane()
	sc := cfg.scale
	lr, err := setUp(rep, liveWarmBuilds, sc.liveSetupReps, func() (*liveRing, error) { return buildLive(cfg.seed, sc.liveNodes, l) }, func(lr *liveRing) { lr.close() })
	if err != nil {
		return nil, err
	}
	defer lr.close()
	rep.addOps("joins", int64((sc.liveNodes-1)*sc.liveSetupReps), 0)

	openDur := cfg.measure * time.Duration(sc.liveOpenShare) / 100
	closedDur := cfg.measure - openDur
	period := time.Second / time.Duration(sc.liveRate)
	nLanes := 1 + sc.liveSenders // lane 0 is the open loop
	tk := newLiveTracker(cfg.seed, lr.ids, nLanes)

	// One drainer per node hands each delivery to the oracle and returns
	// a closed-loop lane's window token.
	tokens := make([]chan struct{}, nLanes)
	for i := 1; i < len(tokens); i++ {
		tokens[i] = make(chan struct{}, sc.liveWindow) // one slot per packet in flight
	}
	var drainers sync.WaitGroup
	for i, node := range lr.nodes {
		drainers.Add(1)
		go func(at int, ch <-chan overlay.Delivery) {
			defer drainers.Done()
			for d := range ch {
				if ln, err := tk.deliver(at, d.Src, d.Payload); err == nil && ln > 0 {
					select {
					case tokens[ln] <- struct{}{}:
					default:
					}
				}
			}
		}(i, node.Deliveries())
	}

	before := lr.counters()
	c0, g0 := readCPUTicks(), readGo()
	var lanes []*lane
	for range nLanes {
		lanes = append(lanes, cfg.tr.lane())
	}
	phaseStart := time.Now()
	traceOn := func(now time.Time) bool {
		return cfg.tr != nil && int(now.Sub(phaseStart)/traceBlock)%2 == 1
	}
	send := func(ln int, rng *rand.Rand, buf []byte, due time.Time) bool {
		seq, rec, ok := tk.next(ln)
		if !ok {
			return false
		}
		src := rng.Intn(len(lr.nodes))
		dst := rng.Intn(len(lr.nodes) - 1)
		if dst >= src {
			dst++ // never send to self: origination does not deliver locally
		}
		rec.src, rec.dst, rec.due = int32(src), int32(dst), int64(due.Sub(tk.epoch))
		rec.traced = traceOn(time.Now())
		var tl *lane
		if rec.traced {
			tl = lanes[ln]
		}
		p := tk.payload(buf, ln, seq, int32(dst))
		tk.commit(ln) // publish before the packet can arrive
		s := tl.begin("overlay", "Node.Send", int64(ln)<<32|int64(seq))
		t0 := threadCPU() // the caller holds its OS thread
		err := lr.nodes[src].Send(lr.ids[dst], p)
		rec.sendNs = int64(threadCPU() - t0)
		tl.end(s)
		if err != nil {
			tk.failed.Add(1)
			tk.mu.Lock()
			tk.errs = append(tk.errs, fmt.Sprintf("send %d/%d: %v", ln, seq, err))
			tk.mu.Unlock()
		}
		return true
	}

	// Open loop: one generator at a fixed rate, each packet timed from
	// its due time. The generator sleeps in nanosleep while holding its
	// processor, so it gets one of its own: otherwise the ring would
	// stall until the runtime's monitor took the processor back.
	var late []float64
	func() {
		prev := runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(prev + 1)
		defer runtime.GOMAXPROCS(prev)
		runtime.LockOSThread() // send times are read on this thread's CPU clock
		defer runtime.UnlockOSThread()
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x0be4))
		buf := make([]byte, livePayload)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if due.Sub(start) >= openDur {
				break
			}
			sleepUntil(due)
			late = append(late, float64(time.Since(due))/1e3)
			if !send(0, rng, buf, due) {
				break
			}
		}
	}()
	openEnd := time.Now()

	// Closed loop: senders each keep a window of packets in flight. The
	// first window warms the pools, stacks and peer tables the open loop
	// left cold and is left out of the figures.
	runtime.GC()
	closedStart := time.Now()
	var senders sync.WaitGroup
	for k := 1; k < nLanes; k++ {
		for j := 0; j < sc.liveWindow; j++ {
			tokens[k] <- struct{}{}
		}
		senders.Add(1)
		go func(ln int) {
			defer senders.Done()
			runtime.LockOSThread() // send times are read on this thread's CPU clock
			defer runtime.UnlockOSThread()
			rng := rand.New(rand.NewSource(cfg.seed ^ int64(ln)<<20))
			buf := make([]byte, livePayload)
			stop := time.NewTimer(closedDur)
			defer stop.Stop()
			for {
				select {
				case <-stop.C:
					return
				case <-tokens[ln]:
					if !send(ln, rng, buf, time.Now()) {
						return
					}
				}
			}
		}(k)
	}
	// Mark the process CPU time at every window boundary: closed-loop
	// throughput is delivered packets per CPU-second of the whole
	// process (every node, the generator and the runtime), which on an
	// idle host tracks wall-clock capacity and leaves out the CPU time a
	// hypervisor steals.
	cpuMarks := []time.Duration{cpuTime()}
	for w := 1; time.Duration(w)*statWindow <= closedDur; w++ {
		time.Sleep(time.Until(closedStart.Add(time.Duration(w) * statWindow)))
		cpuMarks = append(cpuMarks, cpuTime())
	}
	senders.Wait()
	closedEnd := time.Now()
	closedCPU := cpuTime() - cpuMarks[0]
	// Let the last packets arrive (or miss their deadline) before the
	// oracle settles.
	time.Sleep(liveDeadline)
	g1 := readGo()
	rep.lines = append(rep.lines, hostShare(c0, readCPUTicks()))
	after := lr.counters()
	lr.close() // closes the delivery channels; the drainers return
	drainers.Wait()

	sent, lost := tk.settle()
	failed := lost + tk.failed.Load()
	rep.addOps("packets", sent, failed)
	tk.mu.Lock()
	for _, e := range tk.errs {
		rep.fail("%s", e)
	}
	tk.mu.Unlock()
	if lost > 0 {
		rep.fail("%d packets lost or later than %v", lost, liveDeadline)
	}

	// The open loop gives route_us_p50: the one-way delivery latency of
	// each packet from its due time. The closed loop gives throughput
	// and route_us_p99, the tail of the Node.Send call, cut into
	// statWindow-long windows by send time. The delivery tail is reported
	// but not gated: it is set by how long the generator's thread and the
	// ring's share the one CPU, and over runs of one seed it moved between
	// 1.2 and 4.8 ms. The median Node.Send call time is not gated either:
	// over runs of one seed it sat near 3.4 us or near 5.5 us, rarely
	// between, while the delivery median stayed within 96-157 us.
	var lat, sendUs [2][]float64
	for i := int64(0); i < tk.issued[0].Load(); i++ {
		r := tk.lanes[0].at(i)
		if r.count.Load() == 1 {
			h := b2i(r.traced)
			lat[h] = append(lat[h], float64(r.recvAt.Load()-r.due)/1e3)
		}
	}
	closed := closedEnd.Sub(closedStart)
	skip := 0 // warm-up windows left out
	if len(cpuMarks) >= 3 {
		skip = 1
	}
	ws := make([]window, len(cpuMarks)-1-skip)
	var deliv [2]int64
	for ln := 1; ln < len(tk.lanes); ln++ {
		for i := int64(0); i < tk.issued[ln].Load(); i++ {
			r := tk.lanes[ln].at(i)
			w := int((r.due-int64(closedStart.Sub(tk.epoch)))/int64(statWindow)) - skip
			if w < 0 {
				continue
			}
			h := b2i(r.traced)
			us := float64(r.sendNs) / 1e3
			sendUs[h] = append(sendUs[h], us)
			inWin := h == 0 && w < len(ws)
			if inWin {
				ws[w].latUs = append(ws[w].latUs, us)
			}
			if r.count.Load() == 1 {
				deliv[h]++
				if inWin {
					ws[w].ok++
				}
			}
		}
	}
	for i := range ws {
		ws[i].elapsed = cpuMarks[i+1+skip] - cpuMarks[i+skip]
	}
	closedCPU -= cpuMarks[skip] - cpuMarks[0]
	what := fmt.Sprintf("closed loop, %d senders x %d in flight; latency is the Node.Send call", sc.liveSenders, sc.liveWindow)
	var halfCPU [2]time.Duration
	halfCPU[0] = closedCPU
	if cfg.tr != nil {
		halfCPU[0], halfCPU[1] = closedCPU/2, closedCPU/2
	}
	plain := phaseStats{latUs: sendUs[0], ok: deliv[0], elapsed: halfCPU[0]}
	if cfg.tr == nil {
		plain.windows = ws
	}
	setRouteMetrics(rep, plain, what)
	sendP50 := rep.values["route_us_p50"]
	setPercentiles(rep, "live.delivery_us_p50", "live.delivery_us_p99", lat[0],
		fmt.Sprintf("one-way, open loop at %d pkt/s, from due time, untraced", sc.liveRate))
	rep.set("route_us_p50", rep.values["live.delivery_us_p50"], fmt.Sprintf("one-way delivery, open loop at %d pkt/s, from due time, n=%d; Node.Send p50 %.3f us",
		sc.liveRate, len(lat[0]), sendP50))
	fwd, del := after.forwards-before.forwards, after.delivered-before.delivered
	fpd := float64(fwd) / float64(max(del, 1))
	rep.set("stretch_mean", fpd, fmt.Sprintf("overlay hops per delivery (%d forwards / %d deliveries) over the one-hop direct path", fwd, del))
	rep.lines = append(rep.lines, fmt.Sprintf("phases: open loop %.2fs, closed loop %.2fs", openEnd.Sub(phaseStart).Seconds(), closed.Seconds()))
	if cfg.tr == nil {
		return rep, nil
	}

	// The overhead line compares route_us_p50 as gated: delivery latency.
	rep.lines = append(rep.lines, overheadLine(
		phaseStats{latUs: lat[0], ok: deliv[0], elapsed: halfCPU[0]},
		phaseStats{latUs: lat[1], ok: deliv[1], elapsed: halfCPU[1]}))
	setGoMetrics(rep, g0.to(g1, sent))
	setPercentiles(rep, "overlay.send_us_p50", "overlay.send_us_p99", sendUs[1], "closed loop, traced half")
	rep.set("overlay.forwards_per_delivery", fpd, "from each node's telemetry registry")
	rep.set("overlay.delivery_drops", float64(after.drops), "DroppedDeliveries summed over nodes")
	lt := newDist(late)
	pct, v, beyond, _ := lt.tail()
	rep.set("gen.late_us_p99", v, fmt.Sprintf("p%d of n=%d, %d beyond; p50 %.1f", pct, lt.n(), beyond, lt.at(0.5)))

	pkts := livePackets(lr, tk)
	marshal, decode := replayWire(pkts, l)
	rep.set("wire.marshal_ns", marshal, fmt.Sprintf("Packet.AppendTo over %d workload packets", len(pkts)))
	rep.set("wire.decode_ns", decode, "Packet.DecodeFromBytes over the same packets")
	fwdNs := replayForward(lr, pkts, l)
	rep.set("proto.forward_ns", fwdNs, "Core.HandlePacket on transit data packets, rings installed from the live nodes' views")
	udp, err := replayUDP(l)
	if err != nil {
		return nil, err
	}
	rep.set("netem.udp_oneway_us", udp, "median UDP Send to RecvInto between two loopback sockets")
	perHop := (marshal+decode+fwdNs)/1e3 + udp
	p50 := rep.values["live.delivery_us_p50"]
	rep.set("live.unattributed_us", p50-fpd*perHop, fmt.Sprintf("live.delivery_us_p50 %.2f - %.2f hops x %.2f us per hop", p50, fpd, perHop))
	return rep, nil
}

// sleepUntil blocks the calling goroutine until t in nanosleep rather
// than time.Sleep: the runtime rounds a sub-millisecond timer up to a
// whole millisecond of epoll_wait when its threads are idle, which at
// 5000 pkt/s would make the generator, not the ring, the largest part
// of the measured latency.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) only makes this packet's lateness 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type liveCounters struct{ forwards, delivered, drops uint64 }

func (lr *liveRing) counters() liveCounters {
	var c liveCounters
	for i, reg := range lr.regs {
		c.forwards += reg.Counter(metricForward).Value()
		c.delivered += reg.Counter(metricDelivered).Value()
		c.drops += lr.nodes[i].DroppedDeliveries()
	}
	return c
}

// livePackets rebuilds the data packets of the open-loop phase.
func livePackets(lr *liveRing, tk *liveTracker) []wire.Packet {
	n := min(int(tk.issued[0].Load()), 20_000)
	out := make([]wire.Packet, n)
	buf := make([]byte, livePayload)
	for i := range out {
		r := tk.lanes[0].at(int64(i))
		out[i] = wire.Packet{Type: wire.TypeData, TTL: wire.DefaultTTL, Dst: lr.ids[r.dst], Src: lr.ids[r.src],
			Payload: append([]byte(nil), tk.payload(buf, 0, i, r.dst)...)}
	}
	return out
}

// replayWire times encoding and decoding of the workload's packets and
// returns the mean ns of each.
func replayWire(pkts []wire.Packet, l *lane) (marshalNs, decodeNs float64) {
	const rounds = 10
	enc := make([][]byte, len(pkts))
	buf := make([]byte, 0, 256)
	s := l.begin("wire", "Packet.AppendTo", 0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range pkts {
			buf, _ = pkts[i].AppendTo(buf[:0])
		}
	}
	marshalNs = float64(time.Since(t0)) / float64(rounds*len(pkts))
	l.end(s)
	for i := range pkts {
		enc[i], _ = pkts[i].Marshal()
	}
	var p wire.Packet
	s = l.begin("wire", "Packet.DecodeFromBytes", 0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range enc {
			if err := p.DecodeFromBytes(enc[i]); err != nil {
				panic(err) // encoded just above
			}
		}
	}
	decodeNs = float64(time.Since(t0)) / float64(rounds*len(enc))
	l.end(s)
	return marshalNs, decodeNs
}

// replayForward installs each live node's ring view (successor group
// and predecessor) into a fresh proto.Core and times HandlePacket on
// the workload's packets arriving there in transit. It returns the mean
// ns per packet.
func replayForward(lr *liveRing, pkts []wire.Packet, l *lane) float64 {
	cores := make([]*proto.Core, len(lr.nodes))
	for i, node := range lr.nodes {
		c := proto.New(proto.Config{ID: lr.ids[i], Addr: lr.addrs[i]})
		var succs []proto.Peer
		for _, id := range node.SuccessorGroup() {
			succs = append(succs, proto.Peer{ID: id, Addr: lr.addrs[lr.byID[id]]})
		}
		var pred *proto.Peer
		if id, addr, ok := node.Predecessor(); ok {
			pred = &proto.Peer{ID: id, Addr: addr}
		}
		c.InstallRing(succs, pred)
		cores[i] = c
	}
	var a proto.Actions
	pkt := new(wire.Packet)
	const rounds = 5
	calls := 0
	s := l.begin("proto", "Core.HandlePacket", 0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range pkts {
			at := (i + r) % len(cores)
			if pkts[i].Dst == lr.ids[at] {
				continue // transit only
			}
			*pkt = pkts[i]
			cores[at].HandlePacket(pkt, lr.addrs[at], &a)
			a.Reset()
			calls++
		}
	}
	dur := time.Since(t0)
	l.end(s)
	return float64(dur) / float64(max(calls, 1))
}

// replayUDP times one datagram from one loopback UDP transport to
// another, both in this process, and returns the median µs.
func replayUDP(l *lane) (float64, error) {
	a, err := netem.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := netem.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	const n = 20_000
	msg := make([]byte, 80) // a 16-byte payload's data packet
	buf := make([]byte, 2048)
	us := make([]float64, 0, n)
	s := l.begin("netem", "UDP.Send+RecvInto", 0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a.Send(b.LocalAddr(), msg); err != nil {
			return 0, err
		}
		if _, _, err := b.RecvInto(buf); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	l.end(s)
	return newDist(us).at(0.5), nil
}
