package telemetry

import (
	"fmt"
	"io"
)

// Prometheus text exposition (version 0.0.4) of the live plane.
//
// Every metric is prefixed "h2attack_". Gauge metrics come straight
// from the Gauges schema (gaugeInfos); the campaign- and runtime-
// level series are listed in promExtras below. Values render with
// fmt's %v: %d for integers, %g for floats.

// MetricsSnapshot is the input to WriteMetrics: one sampled view of
// the plane, assembled by the status server from the Tracker, the
// Gauges block, and runtime.ReadMemStats. A pure value type so the
// exposition is testable without a live campaign.
type MetricsSnapshot struct {
	// Gauges is the sampled gauge block (Gauges.Snapshot()).
	Gauges [GaugeCount]int64

	// TrialsDone/TrialsTotal/TrialsPerSec describe campaign progress
	// (Tracker values; TrialsPerSec is runner.Progress.TrialsPerSec).
	TrialsDone   int64
	TrialsTotal  int64
	TrialsPerSec float64

	// UptimeSeconds is the wall time since the status server started.
	UptimeSeconds float64

	// Goroutines, HeapAllocBytes, GCCycles, GoMaxProcs are the Go
	// runtime stats surfaced alongside the campaign gauges.
	Goroutines     int64
	HeapAllocBytes int64
	GCCycles       int64
	GoMaxProcs     int64
}

// promExtra is one non-gauge series in the exposition: a name, HELP
// text, and an accessor into the snapshot (an int64 or a float64).
type promExtra struct {
	name  string
	help  string
	value func(*MetricsSnapshot) any
}

// promExtras is the campaign/runtime section of the exposition, in
// output order after the gauge block.
var promExtras = []promExtra{
	{"trials_done", "Trials completed in the current campaign.",
		func(s *MetricsSnapshot) any { return s.TrialsDone }},
	{"trials_total", "Total trials in the current campaign.",
		func(s *MetricsSnapshot) any { return s.TrialsTotal }},
	{"trials_per_sec", "Wall-clock trial throughput (runner.Progress.TrialsPerSec).",
		func(s *MetricsSnapshot) any { return s.TrialsPerSec }},
	{"uptime_seconds", "Seconds since the status server started.",
		func(s *MetricsSnapshot) any { return s.UptimeSeconds }},
	{"go_goroutines", "Number of goroutines.",
		func(s *MetricsSnapshot) any { return s.Goroutines }},
	{"go_heap_alloc_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func(s *MetricsSnapshot) any { return s.HeapAllocBytes }},
	{"go_gc_cycles_total", "Completed GC cycles (runtime.MemStats.NumGC).",
		func(s *MetricsSnapshot) any { return s.GCCycles }},
	{"go_gomaxprocs", "GOMAXPROCS at sample time.",
		func(s *MetricsSnapshot) any { return s.GoMaxProcs }},
}

// writePromSeries writes one metric: its # HELP and # TYPE comment
// lines and its sample line. Every series in the plane is
// conceptually a sampled gauge (even the *_total cumulative cells are
// resettable per campaign), so the TYPE is always "gauge".
func writePromSeries(w io.Writer, name, help string, v any) {
	fmt.Fprintf(w, "# HELP h2attack_%s %s\n# TYPE h2attack_%s gauge\nh2attack_%s %v\n", name, help, name, name, v)
}

// WriteMetrics writes the full Prometheus text exposition of one
// snapshot to w: first every gauge in schema order, then the
// campaign/runtime extras.
func WriteMetrics(w io.Writer, s *MetricsSnapshot) {
	for id := GaugeID(0); id < gaugeCount; id++ {
		writePromSeries(w, gaugeInfos[id].name, gaugeInfos[id].help, s.Gauges[id])
	}
	for _, e := range promExtras {
		writePromSeries(w, e.name, e.help, e.value(s))
	}
}
