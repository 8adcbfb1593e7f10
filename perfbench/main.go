// Command perfbench is the repository's campaign benchmark. It runs one
// survey workload in-process through the public path `h2attack
// -survey` takes (experiment.NewSurvey, Survey.Run, pipeline.Run, the
// SurveyJSONL and SurveySummary exporters), checks the JSONL it wrote,
// and prints its metrics by name with units; the last line of standard
// output is one JSON result object.
//
//	bash perfbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
//
// Load is a closed loop: one process with one worker per CPU, each
// claiming its next trial when the last one finishes. The campaign is
// repeated in rounds for --seconds. With --trace 1 the run adds a
// traced pass (spans in memory, obs counters, a CPU profile) and
// reports the per-layer metrics and ledger instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/experiment"
)

// minRounds is the fewest rounds a timed run makes, so that set-up is
// a median of several.
const minRounds = 3

type options struct {
	workload string
	seed     int64
	seedKind string
	seconds  int
	trace    bool
	workers  int
	heldOut  int64
	defSeed  int64

	// scale divides each round's corpus (1 here, tiny in the tests),
	// and dir holds the campaign files and results.
	scale int
	dir   string
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if !line.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var (
		o    options
		seed string
		tr   int
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: survey, bulk-passive or small-resume")
	fs.StringVar(&seed, "seed", "default", `workload seed: an integer, "default" or "held-out"`)
	fs.Int64Var(&o.defSeed, "default-seed", 1, `the seed "default" names`)
	fs.Int64Var(&o.heldOut, "held-out-seed", 20201025, `the seed "held-out" names; no change is tuned on it`)
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed rounds run")
	fs.IntVar(&tr, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, err := lookupWorkload(o.workload); err != nil {
		return o, err
	}
	switch seed {
	case "default":
		o.seed, o.seedKind = o.defSeed, "default"
	case "held-out":
		o.seed, o.seedKind = o.heldOut, "held-out"
	default:
		n, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			return o, fmt.Errorf("-seed %q: want an integer, default or held-out", seed)
		}
		o.seed, o.seedKind = n, "given"
		switch n {
		case o.defSeed:
			o.seedKind = "default"
		case o.heldOut:
			o.seedKind = "held-out"
		}
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if tr != 0 && tr != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", tr)
	}
	o.trace = tr == 1
	o.scale = 1
	o.dir = ".bench_build"
	o.workers = runtime.NumCPU()
	return o, nil
}

// run executes one benchmark invocation and returns its result line.
func run(o options, out io.Writer) (resultLine, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return resultLine{}, err
	}
	cfg := w.surveyConfig(o.seed, o.scale)
	work := filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	prov := newProvenance(o, cfg)
	fmt.Fprintf(out, "perfbench: workload %s, %d sites x %d reps per round, %d workers, %d s, trace %v\n",
		w.name, cfg.Corpus.Sites, cfg.SiteTrials, o.workers, o.seconds, o.trace)
	prov.print(out)

	var c checker
	env := roundEnv{dir: filepath.Join(work, "round"), workers: o.workers}
	envs, cycles := []roundEnv{env}, minRounds
	var tp *tracedPass
	if o.trace {
		// Untraced rounds (the overhead reference and the runtime
		// counters) alternate with traced ones, so drift in the
		// machine's speed falls on both alike.
		tp = &tracedPass{tr: newTracer(work)}
		traced := env
		traced.tr = tp.tr
		envs, cycles = append(envs, traced), 1
	}
	// An untimed campaign a tenth the size first, so that no timed
	// round pays for heap growth and cold caches alone.
	if _, err := runRound(w, w.surveyConfig(o.seed, 10*o.scale), env); err != nil {
		return resultLine{}, fmt.Errorf("warm-up: %w", err)
	}
	byEnv, err := timedRounds(w, cfg, time.Duration(o.seconds)*time.Second, cycles, envs)
	if err != nil {
		return resultLine{}, err
	}
	timed := byEnv[0]
	records := make([]roundRecord, len(timed))
	for i, rr := range timed {
		c.add(rr)
		records[i] = roundRecord{
			Trials: rr.trials, WallS: rr.wall.Seconds(), TrialsPerS: float64(rr.trials) / rr.wall.Seconds(),
			CPUMsPerTrial: ms(rr.cpu) / float64(rr.trials), P50Ms: ms(rr.p50), P99Ms: ms(rr.p99),
			SetupMs: ms(rr.setup), StealPct: rr.stealPct,
		}
		r := records[i]
		fmt.Fprintf(out, "round %d: %d trials, %.3f s, %.1f trials/s, %.3f ms CPU/trial, p50 %.3f ms, p99 %.3f ms, set-up %.3f ms, steal %.1f%%\n",
			i+1, r.Trials, r.WallS, r.TrialsPerS, r.CPUMsPerTrial, r.P50Ms, r.P99Ms, r.SetupMs, r.StealPct)
	}
	rep := report{}
	notes := map[string]string{}
	untraced := summarize(timed)

	if o.trace {
		tp.rounds = byEnv[1]
		for _, rr := range tp.rounds {
			c.add(rr)
		}
		if tp.prof, err = readProfile(tp.tr.profiles...); err != nil {
			return resultLine{}, err
		}
	}
	if w.resume {
		// The uninterrupted reference: the resumed rounds must have
		// written exactly its bytes.
		ref := w
		ref.resume = false
		rr, err := runRound(ref, cfg, env)
		if err != nil {
			return resultLine{}, err
		}
		c.add(rr)
	}

	rep["target_success_pct"] = untraced.successPct
	rep["failed_trial_pct"] = 100 * float64(c.failed) / float64(max(c.attempted, 1))
	if !o.trace {
		rep["trials_per_s"] = untraced.trialsPerS
		rep["cpu_ms_per_trial"] = untraced.cpuMsPerTrial
		rep["trial_ms_p50"], rep["trial_ms_p99"] = untraced.p50Ms, untraced.p99Ms
		n := timed[0].trials
		perRound := fmt.Sprintf("median of %d rounds of %d trials", len(timed), n)
		notes["trials_per_s"], notes["cpu_ms_per_trial"] = perRound, perRound
		perTrial := fmt.Sprintf("over n=%d trials of each one's median over %d rounds", n, len(timed))
		notes["trial_ms_p50"] = perTrial
		notes["trial_ms_p99"] = fmt.Sprintf("%s, %d beyond", perTrial, beyond(n, 99))
		if beyond(n, 99) < minBeyond {
			notes["trial_ms_p99"] += fmt.Sprintf(": UNSUPPORTED, fewer than %d", minBeyond)
		}
		rep["setup_s"] = untraced.setupS
		notes["setup_s"] = fmt.Sprintf("median of %d rounds", len(timed))
	}
	rep["max_rss_mb"] = float64(maxRSSBytes()) / 1e6

	fmt.Fprintf(out, "output check: %d trials attempted, %d failed, JSONL sha256 %x\n", c.attempted, c.failed, c.digest)
	if c.problem != "" {
		fmt.Fprintf(out, "output check FAILED: %s\n", c.problem)
	}
	line := resultLine{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	if o.trace {
		ledger := tp.perLayer(rep, untraced, o.workers)
		fmt.Fprintln(out, "per-layer metrics (traced pass):")
		rep.print(out, perLayer, nil)
		ledger.print(out)
		tracePath := filepath.Join(o.dir, "results", fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return resultLine{}, err
		}
		if err := tp.tr.writeTraceEvents(tracePath, prov); err != nil {
			return resultLine{}, err
		}
		fmt.Fprintf(out, "trace: %s (open in ui.perfetto.dev)\n", tracePath)
		line.Metrics, err = rep.line(perLayer)
	} else {
		fmt.Fprintln(out, "end-to-end metrics (tracing off):")
		rep.print(out, endToEnd, notes)
		rep.print(out, outcomes, notes)
		line.Metrics, err = rep.line(endToEnd)
	}
	if err != nil {
		return resultLine{}, err
	}
	if err := writeResult(o, prov, line, rep, records); err != nil {
		return resultLine{}, err
	}
	return line, nil
}

// timedRounds repeats the campaign in cycles of one round per env until
// budget is spent, starting no cycle that would overrun it, but making
// at least minCycles cycles. It returns the rounds of each env and
// records every trial's service time.
func timedRounds(w workload, cfg experiment.SurveyConfig, budget time.Duration, minCycles int, envs []roundEnv) ([][]roundResult, error) {
	rounds := make([][]roundResult, len(envs))
	start := time.Now()
	for cycle := 1; ; cycle++ {
		for i, env := range envs {
			service := make([]time.Duration, cfg.Corpus.Sites*cfg.SiteTrials)
			env.onTrialDone = func(i int, d time.Duration) { service[i] = d }
			total0, steal0 := cpuTicks()
			rr, err := runRound(w, cfg, env)
			if err != nil {
				return nil, err
			}
			total1, steal1 := cpuTicks()
			rr.stealPct = stealPct(total0, steal0, total1, steal1)
			rr.service = service
			sorted := slices.Clone(service)
			slices.Sort(sorted)
			rr.p50, _ = percentile(sorted, 50)
			rr.p99, _ = percentile(sorted, 99)
			rounds[i] = append(rounds[i], rr)
		}
		elapsed := time.Since(start)
		if cycle >= minCycles && elapsed+elapsed/time.Duration(cycle) > budget {
			return rounds, nil
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// roundsSummary is the medians over a run's rounds.
type roundsSummary struct {
	trials        int
	wall          time.Duration
	trialsPerS    float64
	cpuMsPerTrial float64
	p50Ms, p99Ms  float64
	setupS        float64
	successPct    float64
	mem           memDelta
}

func summarize(rounds []roundResult) roundsSummary {
	var s roundsSummary
	var tps, cpu, setup []float64
	for _, rr := range rounds {
		s.trials += rr.trials
		s.wall += rr.wall
		tps = append(tps, float64(rr.trials)/rr.wall.Seconds())
		cpu = append(cpu, ms(rr.cpu)/float64(rr.trials))
		setup = append(setup, rr.setup.Seconds())
		s.mem.add(rr.mem)
	}
	s.trialsPerS, s.cpuMsPerTrial, s.setupS = median(tps), median(cpu), median(setup)
	service := trialMedians(rounds)
	p50, _ := percentile(service, 50)
	p99, _ := percentile(service, 99)
	s.p50Ms, s.p99Ms = p50, p99
	if len(rounds) > 0 {
		s.successPct = 100 * float64(rounds[0].success) / float64(rounds[0].trials)
	}
	return s
}

// trialMedians returns, sorted, each trial's median service time over
// the rounds in milliseconds. Every round runs the same trials, so a
// trial's median discards the rounds in which it alone was delayed by
// something outside the program, such as a descheduled virtual CPU.
func trialMedians(rounds []roundResult) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]float64, len(rounds[0].service))
	per := make([]float64, len(rounds))
	for i := range out {
		for r, rr := range rounds {
			per[r] = ms(rr.service[i])
		}
		out[i] = median(per)
	}
	slices.Sort(out)
	return out
}

// checker accumulates the output checks of every round in a run: each
// round's JSONL must pass checkJSONL and have the first round's digest.
type checker struct {
	attempted, failed int
	digest            [32]byte
	problem           string
}

func (c *checker) add(rr roundResult) {
	first := c.attempted == 0
	c.attempted += rr.trials
	failed := max(rr.panicked, rr.check.bad)
	problem := rr.check.first
	if rr.panicked > 0 && problem == "" {
		problem = fmt.Sprintf("%d trials panicked", rr.panicked)
	}
	if first {
		c.digest = rr.check.digest
	} else if rr.check.digest != c.digest {
		failed = rr.trials
		problem = fmt.Sprintf("JSONL sha256 %x differs from the first round's %x", rr.check.digest, c.digest)
	}
	c.failed += min(failed, rr.trials)
	if c.problem == "" {
		c.problem = problem
	}
}

// roundRecord is one untraced round as the result file records it.
type roundRecord struct {
	Trials        int     `json:"trials"`
	WallS         float64 `json:"wall_s"`
	TrialsPerS    float64 `json:"trials_per_s"`
	CPUMsPerTrial float64 `json:"cpu_ms_per_trial"`
	P50Ms         float64 `json:"trial_ms_p50"`
	P99Ms         float64 `json:"trial_ms_p99"`
	SetupMs       float64 `json:"setup_ms"`
	StealPct      float64 `json:"steal_pct"`
}

// writeResult records the run's provenance, result line and every
// measured value under dir/results.
func writeResult(o options, prov provenance, line resultLine, rep report, rounds []roundRecord) error {
	path := filepath.Join(o.dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance         `json:"provenance"`
		Result     resultLine         `json:"result"`
		All        map[string]float64 `json:"all_values"`
		Rounds     []roundRecord      `json:"untraced_rounds"`
	}{prov, line, rep, rounds}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
