package main

import "fmt"

// metricDef is one metric the benchmark reports, as declared in
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"route_per_s", "msg/s"},
	{"route_us_p50", "us"},
	{"route_us_p99", "us"},
	{"stretch_mean", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports. A metric
// whose layer a workload does not exercise reads 0 there and is marked
// n/a in the run's log.
var perLayer = []metricDef{
	{"topology.gen_ms", "ms"},
	{"topology.as_rel_ns", "ns"},
	{"linkstate.path_us", "us"},
	{"vring.join_us_p50", "us"},
	{"vring.join_us_p99", "us"},
	{"vring.join_msgs", "msg"},
	{"vring.route_hops_mean", "hops"},
	{"vring.cache_entries_mean", "entries"},
	{"vring.cache_hit_ratio", "ratio"},
	{"vring.cache_insert_ns", "ns"},
	{"vring.cache_lookup_ns", "ns"},
	{"canon.join_ms_p50", "ms"},
	{"canon.join_ms_p99", "ms"},
	{"canon.join_msgs", "msg"},
	{"canon.route_as_hops_mean", "hops"},
	{"sim.events", "count"},
	{"sim.converge_vms", "vms"},
	{"sim.events_per_s", "1/s"},
	{"compact.cache_hit_ratio", "ratio"},
	{"compact.probe_hops_mean", "hops"},
	{"compact.accounted_mb", "MB"},
	{"wire.marshal_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"proto.forward_ns", "ns"},
	{"overlay.send_us_p50", "us"},
	{"overlay.send_us_p99", "us"},
	{"overlay.forwards_per_delivery", "ratio"},
	{"overlay.delivery_drops", "count"},
	{"netem.udp_oneway_us", "us"},
	{"live.delivery_us_p50", "us"},
	{"live.delivery_us_p99", "us"},
	{"live.unattributed_us", "us"},
	{"gen.late_us_p99", "us"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.cpu_s", "s"},
}

// opCount is the attempted and failed count of one kind of operation.
type opCount struct {
	kind              string
	attempted, failed int64
}

// report is what a workload measured. values holds every metric it
// has a number for, end-to-end and per-layer alike; notes are printed
// beside them (sample counts, the percentile a tail value is).
type report struct {
	ops    []opCount
	values map[string]float64
	notes  map[string]string
	lines  []string // free-form log lines (self times, tracing overhead)
	errs   []string // first few failure descriptions
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) addOps(kind string, attempted, failed int64) {
	r.ops = append(r.ops, opCount{kind, attempted, failed})
}

// fail records a failed operation's description; only the first few
// are kept for the log.
func (r *report) fail(format string, args ...any) {
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}
