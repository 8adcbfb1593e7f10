package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tinyRun runs one workload at a tiny corpus scale for one second.
func tinyRun(t *testing.T, workload, trace string) (string, resultLine, options) {
	t.Helper()
	o, err := parseFlags([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	o.scale, o.dir = 50, t.TempDir()
	var out bytes.Buffer
	line, err := run(o, &out)
	if err != nil {
		t.Fatalf("%s trace %s: %v\n%s", workload, trace, err, out.String())
	}
	return out.String(), line, o
}

// TestTinyRuns runs every workload untraced and traced at a tiny size
// and checks that every named metric is printed and that the result
// line carries exactly the declared metrics.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			out, line, o := tinyRun(t, w.name, trace)
			defs := slices.Concat(endToEnd, outcomes)
			if trace == "1" {
				defs = perLayer
			}
			for _, d := range defs {
				if !strings.Contains(out, "  "+d.name+" ") {
					t.Errorf("%s trace %s: metric %s not printed", w.name, trace, d.name)
				}
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %s: result %+v\n%s", w.name, trace, line, out)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics on the result line, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: result line metric %s = %+v", w.name, trace, d.name, m)
				}
			}
			data, _ := json.Marshal(line)
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", data)
			}
			results, _ := filepath.Glob(filepath.Join(o.dir, "results", "*.json"))
			if len(results) == 0 {
				t.Errorf("%s trace %s: no result file written", w.name, trace)
			}
			if trace == "1" {
				checkTraceFile(t, filepath.Join(o.dir, "results", w.name+"-seed3.trace.json"))
				if !strings.Contains(out, "ledger.residual_pct") {
					t.Errorf("%s: ledger not printed", w.name)
				}
			}
		}
	}
}

// checkTraceFile decodes a trace_event file and checks it names a
// track per worker and holds trial spans.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	tracks, trials := 0, 0
	for _, e := range f.TraceEvents {
		if e.Ph == "M" && strings.HasPrefix(e.Args["name"].(string), "worker ") {
			tracks++
		}
		if e.Ph == "X" && e.Name == "runner.trial" {
			trials++
		}
	}
	if tracks == 0 || trials == 0 {
		t.Errorf("%s: %d worker tracks, %d trial spans", path, tracks, trials)
	}
}

func TestParseFlagsSeeds(t *testing.T) {
	for _, c := range []struct {
		seed string
		want int64
		kind string
	}{{"default", 7, "default"}, {"held-out", 9, "held-out"}, {"9", 9, "held-out"}, {"12", 12, "given"}} {
		o, err := parseFlags([]string{"--default-seed", "7", "--held-out-seed", "9", "--workload", "survey", "--seed", c.seed}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if o.seed != c.want || o.seedKind != c.kind {
			t.Errorf("--seed %s: got %d (%s), want %d (%s)", c.seed, o.seed, o.seedKind, c.want, c.kind)
		}
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "survey", "--trace", "2"},
		{"--workload", "survey", "--seed", "x"},
		{"--workload", "survey", "--seconds", "0"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// TestOutputCheck corrupts a campaign's JSONL in the ways the check
// must catch, and feeds the checker a round with another digest.
func TestOutputCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	w, _ := lookupWorkload("survey")
	cfg := w.surveyConfig(5, 100)
	dir := t.TempDir()
	rr, err := runRound(w, cfg, roundEnv{dir: dir, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.check.bad != 0 || rr.check.lines != rr.trials || rr.trials != cfg.Corpus.Sites*cfg.SiteTrials {
		t.Fatalf("clean campaign: %+v", rr.check)
	}
	path := filepath.Join(dir, "results.jsonl")
	data, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // after the final newline

	swapped := slices.Clone(lines)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	truncated := lines[:len(lines)-1]
	unknown := slices.Clone(lines)
	unknown[2] = strings.Replace(unknown[2], "{", `{"extra":1,`, 1)
	for name, c := range map[string]struct {
		lines []string
		bad   int
	}{"swapped": {swapped, 2}, "truncated": {truncated, 1}, "unknown field": {unknown, 1}} {
		if err := os.WriteFile(path, []byte(strings.Join(c.lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := checkJSONL(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.bad != c.bad || got.first == "" {
			t.Errorf("%s: bad = %d (%q), want %d", name, got.bad, got.first, c.bad)
		}
	}

	var c checker
	c.add(rr)
	other := rr
	other.check.digest[0] ^= 1
	c.add(other)
	if c.failed != rr.trials || c.attempted != 2*rr.trials || !strings.Contains(c.problem, "differs") {
		t.Errorf("digest mismatch: failed %d of %d, problem %q", c.failed, c.attempted, c.problem)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, m, want[i])
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	// The command records both seeds, and they differ.
	if _, err := parseFlags(append(b.Command[2:], "--workload", "survey"), os.Stderr); err != nil {
		t.Errorf("command %v: %v", b.Command, err)
	}
	def, held := "", ""
	for i := 0; i+1 < len(b.Command); i++ {
		switch b.Command[i] {
		case "--default-seed":
			def = b.Command[i+1]
		case "--held-out-seed":
			held = b.Command[i+1]
		}
	}
	if def == "" || held == "" || def == held {
		t.Errorf("command %v must record distinct --default-seed and --held-out-seed", b.Command)
	}
}
