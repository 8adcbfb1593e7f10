package telemetry

import (
	"strings"
	"testing"
)

// TestAppendMetricsWellFormed sanity-checks the exposition shape
// WriteMetrics renders and the CI smoke greps for: HELP/TYPE pairs
// precede each sample and every sample line parses as "name value".
func TestAppendMetricsWellFormed(t *testing.T) {
	s := MetricsSnapshot{TrialsDone: 5, TrialsTotal: 10, TrialsPerSec: 2.5}
	var b strings.Builder
	WriteMetrics(&b, &s)
	text := b.String()
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
