package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"rofl/internal/ident"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n, pct int
		v      float64
	}{
		{1000, 99, 990}, // rank 990, 10 beyond
		{999, 98, 980},  // p99's rank 990 leaves 9 beyond
		{100000, 99, 99000},
		{150, 93, 140}, // rank ceil(139.5) = 140, 10 beyond
		{20, 50, 10},   // only the median has 10 beyond
	} {
		pct, v, beyond, ok := newDist(seq(tc.n)).tail()
		if !ok || pct != tc.pct || v != tc.v || beyond < tailMin {
			t.Errorf("n=%d: got p%d=%v (%d beyond, ok=%v), want p%d=%v", tc.n, pct, v, beyond, ok, tc.pct, tc.v)
		}
	}
	if _, _, _, ok := newDist(seq(19)).tail(); ok {
		t.Errorf("n=19: no percentile from 50 up has 10 samples beyond it")
	}
}

func TestLiveOracleRejectsMisdeliveredAndDuplicated(t *testing.T) {
	ids := []ident.ID{ident.FromUint64(1), ident.FromUint64(2), ident.FromUint64(3)}
	tk := newLiveTracker(7, ids, 1)
	send := func(src, dst int32) []byte {
		seq, rec, ok := tk.next(0)
		if !ok {
			t.Fatal("lane full")
		}
		rec.src, rec.dst, rec.due = src, dst, tk.now()
		tk.commit(0)
		return tk.payload(make([]byte, livePayload), 0, seq, dst)
	}
	p := send(0, 1)
	if _, err := tk.deliver(2, ids[0], p); err == nil {
		t.Error("delivery at the wrong node accepted")
	}
	if _, err := tk.deliver(1, ids[2], p); err == nil {
		t.Error("delivery naming the wrong source accepted")
	}
	if _, err := tk.deliver(1, ids[0], p); err != nil {
		t.Errorf("correct delivery rejected: %v", err)
	}
	if _, err := tk.deliver(1, ids[0], p); err == nil {
		t.Error("duplicate delivery accepted")
	}
	bad := send(2, 0)
	bad[5] ^= 1 // a bit flip in the sequence number
	if _, err := tk.deliver(0, ids[2], bad); err == nil {
		t.Error("corrupt payload accepted")
	}
	if got := tk.failed.Load(); got != 4 {
		t.Errorf("failed = %d, want 4", got)
	}
	// The second packet never arrived intact: settle counts it lost.
	if sent, lost := tk.settle(); sent != 2 || lost != 1 {
		t.Errorf("settle = %d sent, %d lost; want 2, 1", sent, lost)
	}
}

// tinyScale keeps the sim workloads to a few seconds in total.
var tinyScale = scale{
	setupReps: 1, liveSetupReps: 1,
	intraHosts: 300, intraStretchProbes: 300,
	interHosts: 1200, interJoins: 30, interProbes: 100,
	compactHosts: 3000, compactProbes: 500,
	liveNodes: 8, liveRate: 1000, liveSenders: 2, liveWindow: 4, liveOpenShare: 50,
}

// deterministic are the outputs a seed fixes, whatever the timing.
var deterministic = []string{"stretch_mean", "vring.join_msgs", "vring.route_hops_mean",
	"canon.join_msgs", "canon.route_as_hops_mean", "sim.events", "sim.converge_vms",
	"compact.probe_hops_mean", "compact.accounted_mb"}

func detOutputs(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	rep, err := w.run(runConfig{seed: seed, measure: time.Millisecond, scale: tinyScale})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if len(rep.errs) > 0 {
		t.Fatalf("%s seed %d: failures %v", w.name, seed, rep.errs)
	}
	out := map[string]float64{}
	for _, k := range deterministic {
		if v, ok := rep.values[k]; ok {
			out[k] = v
		}
	}
	return out
}

func TestSeedFixesDeterministicOutputs(t *testing.T) {
	for _, w := range workloads {
		if w.name == "live-udp" {
			continue // the live ring's timing is not seeded
		}
		t.Run(w.name, func(t *testing.T) {
			a, b, c := detOutputs(t, w, 1), detOutputs(t, w, 1), detOutputs(t, w, 2)
			if len(a) < 2 {
				t.Fatalf("only %d deterministic outputs: %v", len(a), a)
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: seed 1 gave %v then %v", k, v, b[k])
				}
			}
			changed := false
			for k, v := range a {
				changed = changed || c[k] != v
			}
			if !changed {
				t.Errorf("seed 2 reproduced every output of seed 1: %v", a)
			}
		})
	}
}

func TestLiveSmallRingDeliversEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs for a few seconds")
	}
	rep, err := runLive(runConfig{seed: 3, measure: 600 * time.Millisecond, scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range rep.ops {
		if op.failed != 0 || op.attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", op.kind, op.attempted, op.failed, rep.errs)
		}
	}
	for _, d := range endToEnd {
		if _, ok := rep.values[d.name]; !ok && d.name != "peak_rss_mb" {
			t.Errorf("%s not reported", d.name)
		}
	}
}

// TestDeclarationMatchesBenchmarkJSON keeps the metric and workload
// names the program prints in step with BENCHMARK.json.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range bj.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name)
	}
	if strings.Join(gotW, ",") != strings.Join(wantW, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", gotW, wantW)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
