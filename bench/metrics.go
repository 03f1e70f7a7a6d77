package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics of an untraced run, measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"events_per_s", "1/s", "higher", bound(0.25)},
	{"alloc_kib_per_job", "KiB/job", "lower", bound(0.25)},
	{"live_heap_mib", "MiB", "lower", bound(0.25)},
}

// perLayer are the metrics of a traced run. Every workload reports each of
// them; the per-family breakdown, which differs between workloads, goes to
// standard error and the spans file.
var perLayer = []metricDef{
	{"sched.calls", "count", "lower", nil},
	{"sched.busy_s", "s", "lower", nil},
	{"sched.p50_us", "us", "lower", nil},
	{"sched.p99_us", "us", "lower", nil},
	{"sched.jobs_mean", "jobs", "lower", nil},
	{"sched.us_per_job", "us", "lower", nil},
	{"sched.arrival.calls", "count", "lower", nil},
	{"sched.arrival.busy_s", "s", "lower", nil},
	{"sched.arrival.p99_us", "us", "lower", nil},
	{"sched.completion.calls", "count", "lower", nil},
	{"sched.completion.busy_s", "s", "lower", nil},
	{"sched.completion.p99_us", "us", "lower", nil},
	{"sched.calls_pass0", "count", "lower", nil},
	{"sim.events", "count", "lower", nil},
	{"sim.events_pass0", "count", "lower", nil},
	{"sim.self_s", "s", "lower", nil},
	{"sim.self_us_per_event", "us", "lower", nil},
	{"ops.count", "count", "higher", nil},
	{"ops.busy_s", "s", "lower", nil},
	{"ops.outside_s", "s", "lower", nil},
	{"ops.worker_util", "ratio", "higher", nil},
	{"parallel.serial_s", "s", "lower", nil},
	{"parallel.speedup", "x", "higher", nil},
	{"trace.overhead", "ratio", "lower", nil},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
