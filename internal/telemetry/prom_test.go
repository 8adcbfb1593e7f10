package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// referenceMetrics is the naive fmt.Sprintf rendering of the
// exposition — the semantic reference the append encoder is pinned
// against.
func referenceMetrics(s *MetricsSnapshot) string {
	var b strings.Builder
	line := func(name, help string, value string) {
		fmt.Fprintf(&b, "# HELP h2attack_%s %s\n", name, help)
		fmt.Fprintf(&b, "# TYPE h2attack_%s gauge\n", name)
		fmt.Fprintf(&b, "h2attack_%s %s\n", name, value)
	}
	for id := GaugeID(0); id < gaugeCount; id++ {
		line(id.Name(), id.Help(), fmt.Sprintf("%d", s.Gauges[id]))
	}
	for i := range promExtras {
		e := &promExtras[i]
		if e.isFloat {
			line(e.name, e.help, fmt.Sprintf("%g", e.fltVal(s)))
		} else {
			line(e.name, e.help, fmt.Sprintf("%d", e.intVal(s)))
		}
	}
	return b.String()
}

// TestAppendMetricsMatchesReference pins the append encoder byte-for-
// byte against the fmt reference across representative snapshots,
// including awkward float values (%g switches to exponent form, and
// strconv's 'g'/-1 must agree exactly).
func TestAppendMetricsMatchesReference(t *testing.T) {
	snaps := []MetricsSnapshot{
		{}, // all zeros
		{
			TrialsDone: 12345, TrialsTotal: 100000,
			TrialsPerSec: 1234.5678901, UptimeSeconds: 0.25,
			Goroutines: 17, HeapAllocBytes: 1 << 30, GCCycles: 42, GoMaxProcs: 8,
		},
		{
			TrialsPerSec:  1e21, // exponent form in %g
			UptimeSeconds: math.SmallestNonzeroFloat64,
		},
		{
			TrialsPerSec:  0.000001234,
			UptimeSeconds: 123456789.123456,
		},
	}
	// Populate every gauge with a distinct value, including negatives
	// (a gauge briefly reads negative only through sampling races, but
	// the encoder must render whatever the cells hold).
	for i := range snaps[1].Gauges {
		snaps[1].Gauges[i] = int64(i*i) - 3
	}
	for i, s := range snaps {
		got := string(AppendMetrics(nil, &s))
		want := referenceMetrics(&s)
		if got != want {
			t.Errorf("snapshot %d: append encoder diverges from fmt reference\n got: %q\nwant: %q", i, got, want)
		}
	}
}

// TestAppendMetricsWellFormed sanity-checks the exposition shape the
// CI smoke also greps for: HELP/TYPE pairs precede each sample and
// every sample line parses as "name value".
func TestAppendMetricsWellFormed(t *testing.T) {
	s := MetricsSnapshot{TrialsDone: 5, TrialsTotal: 10, TrialsPerSec: 2.5}
	text := string(AppendMetrics(nil, &s))
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines)%3 != 0 {
		t.Fatalf("exposition length %d not a multiple of HELP/TYPE/sample triples", len(lines))
	}
	for i := 0; i < len(lines); i += 3 {
		if !strings.HasPrefix(lines[i], "# HELP h2attack_") {
			t.Errorf("line %d: want HELP, got %q", i, lines[i])
		}
		if !strings.HasPrefix(lines[i+1], "# TYPE h2attack_") || !strings.HasSuffix(lines[i+1], " gauge") {
			t.Errorf("line %d: want TYPE gauge, got %q", i+1, lines[i+1])
		}
		fields := strings.Fields(lines[i+2])
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "h2attack_") {
			t.Errorf("line %d: malformed sample %q", i+2, lines[i+2])
		}
	}
}
