package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (pinned by TestBenchmarkJSONMatches);
// moves says which end-to-end metric a per-layer metric should move,
// and on which workload.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the gated metrics of an untraced run.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher", ""},
	{"cpu_ms_per_trial", "ms", "lower", ""},
	{"trial_ms_p50", "ms", "lower", ""},
	{"trial_ms_p99", "ms", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"max_rss_mb", "MB", "lower", ""},
}

// outcomes are printed beside the end-to-end metrics but not gated:
// target success is 0 on bulk-passive and failures are 0 on a correct
// run, and the result line carries failures as failed/attempted.
var outcomes = []metricDef{
	{"target_success_pct", "%", "higher", ""},
	{"failed_trial_pct", "%", "lower", ""},
}

// perLayer are the metrics of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"website.build_us_p50", "us", "lower", "trial_ms_p50, trials_per_s on small-resume; nothing on bulk-passive"},
		{"website.builds_per_trial", "count", "lower", "trial_ms_p50, trials_per_s on small-resume; nothing on bulk-passive"},
		{"experiment.run_site_trial_us_p50", "us", "lower", "trial_ms_p50 on every workload"},
		{"experiment.run_site_trial_us_p99", "us", "lower", "trial_ms_p99 on every workload"},
		{"netem.sends_per_trial", "count", "lower", "cpu_ms_per_trial, trials_per_s: most on bulk-passive, least on small-resume"},
		{"netem.drop_ratio", "ratio", "lower", "cpu_ms_per_trial on survey and small-resume (attack drops)"},
		{"netem.queue_wait_us_p50", "us", "lower", "target_success_pct (simulated time, not CPU)"},
		{"tcpsim.segments_per_trial", "count", "lower", "cpu_ms_per_trial, trials_per_s: most on bulk-passive"},
		{"tcpsim.retx_ratio", "ratio", "lower", "cpu_ms_per_trial on survey and small-resume"},
		{"tcpsim.rto_per_trial", "count", "lower", "cpu_ms_per_trial on survey and small-resume"},
		{"h2sim.requests_per_trial", "count", "lower", "cpu_ms_per_trial on small-resume"},
		{"h2sim.rerequests_per_trial", "count", "lower", "cpu_ms_per_trial on survey and small-resume"},
		{"h2sim.reset_rounds_per_trial", "count", "lower", "cpu_ms_per_trial on survey and small-resume"},
		{"h2sim.dup_copy_ratio", "ratio", "lower", "cpu_ms_per_trial on survey and small-resume"},
		{"stack.ns_per_link_send", "ns", "lower", "cpu_ms_per_trial, trials_per_s: most on bulk-passive, least on small-resume"},
		{"core.held_per_trial", "count", "lower", "trials_per_s, target_success_pct on survey and small-resume; 0 on bulk-passive"},
		{"core.dropped_per_trial", "count", "lower", "trials_per_s, target_success_pct on survey and small-resume; 0 on bulk-passive"},
		{"core.reset_bursts_per_trial", "count", "lower", "trials_per_s, target_success_pct on survey and small-resume; 0 on bulk-passive"},
		{"core.identified_ratio", "ratio", "higher", "target_success_pct on survey and small-resume"},
	}
	// A layer's CPU share moves cpu_ms_per_trial on the workload it
	// dominates.
	shareMoves := map[string]string{
		"website": "small-resume", "h2": "small-resume", "pipeline": "small-resume",
		"jsonenc": "small-resume", "obs": "small-resume", "telemetry": "small-resume",
		"core": "survey and small-resume", "analysis": "survey and small-resume", "trace": "survey and small-resume",
		"experiment": "every workload", "runner": "every workload", "runtime_gc": "every workload",
		"runtime_other": "every workload", "syscall": "small-resume", "other": "every workload",
	}
	for _, b := range shareBuckets {
		where := shareMoves[b]
		if where == "" {
			where = "bulk-passive most" // the per-packet stack and its RNG
		}
		defs = append(defs, metricDef{"cpu_share." + b, "%", "lower", "cpu_ms_per_trial on " + where})
	}
	return append(defs,
		metricDef{"pipeline.export_us_p50", "us", "lower", "trials_per_s on small-resume; not on bulk-passive"},
		metricDef{"pipeline.export_bytes_per_trial", "B", "lower", "trials_per_s on small-resume; not on bulk-passive"},
		metricDef{"pipeline.checkpoints", "count", "lower", "trials_per_s, setup_s on small-resume"},
		metricDef{"pipeline.checkpoint_ms_p50", "ms", "lower", "trials_per_s on small-resume; not on bulk-passive"},
		metricDef{"pipeline.restore_ms", "ms", "lower", "setup_s on small-resume"},
		metricDef{"pipeline.close_ms", "ms", "lower", "trials_per_s on every workload"},
		metricDef{"runner.busy_share", "ratio", "higher", "trials_per_s on every workload"},
		metricDef{"runner.wait_share", "ratio", "lower", "trials_per_s on every workload"},
		metricDef{"obs.snapshot_ms", "ms", "lower", "cpu_ms_per_trial on small-resume"},
		metricDef{"runtime.allocs_per_trial", "count", "lower", "max_rss_mb, cpu_ms_per_trial everywhere"},
		metricDef{"runtime.alloc_kb_per_trial", "KiB", "lower", "max_rss_mb, cpu_ms_per_trial everywhere"},
		metricDef{"runtime.gc_per_1k_trials", "count", "lower", "cpu_ms_per_trial everywhere"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower", "trial_ms_p99 everywhere"},
		metricDef{"trace.overhead_pct", "%", "lower", "none: the cost of tracing itself"},
		metricDef{"ledger.residual_pct", "%", "lower", "none: worker time the spans do not explain"},
	)
}()

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values by name.
type report map[string]float64

// line builds the result line's metrics for defs; every def must have
// a value.
func (r report) line(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// print writes defs as a name/value/unit table, with a note per name:
// the given one, or else which end-to-end metric it should move.
func (r report) print(w io.Writer, defs []metricDef, notes map[string]string) {
	for _, d := range defs {
		note := notes[d.name]
		if note == "" && d.moves != "" {
			note = "moves " + d.moves
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", d.name, r[d.name], d.unit, note)
	}
}
