// Command h2attack runs the paper's experiments on the simulation
// stack and prints the tables and series the paper reports.
//
// Usage:
//
//	h2attack -table1            # Table I (jitter sweep)
//	h2attack -fig5              # Figure 5 (bandwidth sweep)
//	h2attack -drops             # Section IV-D (targeted drops)
//	h2attack -table2            # Table II (full attack accuracy)
//	h2attack -delay             # Section IV-A control (uniform delay)
//	h2attack -defenses          # Section VII defence evaluation
//	h2attack -all               # everything
//	h2attack -trial -seed 42    # one verbose full-attack trial
//	h2attack -events 42         # flight-recorder dump of one trial
//	                            # (seed=42 also accepted)
//	h2attack -events-trace trial.json -seed 42
//	                            # the same ring as a Perfetto timeline
//
// Survey campaigns run the attack against a synthetic site corpus
// through the streaming pipeline, with checkpointed resume:
//
//	h2attack -survey -corpus 1000 -export summary,jsonl=out.jsonl \
//	         -checkpoint ck.json -progress
//
// Interrupt a campaign with ^C (or bound it with -max-trials); rerun
// the same command to resume from the checkpoint — the final exporter
// output is byte-identical to an uninterrupted run.
//
// Any selection of campaigns also splits across OS processes: each
// process runs one contiguous slice of every selected campaign into a
// self-describing bundle directory, and a merge run reassembles the
// bundles into output byte-identical to a single process:
//
//	h2attack -all -shard 1/3 -shard-dir s1     # likewise 2/3, 3/3
//	h2attack -all -merge s1,s2,s3
//
// scripts/shard.sh wraps the fan-out and merge in one command. An
// interrupted shard resumes when rerun (bundles carry per-campaign
// checkpoints); -merge refuses incomplete bundles and bundles whose
// campaign fingerprints do not match the merge run's own flags.
//
// Use -trials and -seed to control the sweep size and reproducibility.
// Sweeps fan their trials across -j worker goroutines (default: all
// CPUs); the printed tables are identical at every -j because trial
// seeds derive from the trial index, not the worker. -progress shows
// a live completion/ETA line on stderr.
//
// -status ADDR serves live wall-side telemetry while any campaign
// runs: /metrics (Prometheus text), /status (JSON progress and health
// gauges), /events?seed=N (on-demand flight-recorder replay). The
// plane samples atomics the trial paths update; nothing it observes
// feeds back into campaign output, which stays byte-identical with it
// on or off.
//
// -metrics prints a cross-layer metrics summary after each sweep
// (counters and histograms per configuration segment); -metrics-json
// FILE exports the same snapshots as JSON next to the BENCH_*.json
// baselines. Both are byte-identical at every -j. Throughput and
// latency come from -progress and -status instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/website"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

// run registers the command's flags on fs, parses args, and runs the
// selected campaigns, returning the exit code.
func run(fs *flag.FlagSet, args []string) int {
	var (
		table1     = fs.Bool("table1", false, "reproduce Table I (jitter sweep)")
		fig5       = fs.Bool("fig5", false, "reproduce Figure 5 (bandwidth sweep)")
		drops      = fs.Bool("drops", false, "reproduce section IV-D (targeted drops)")
		table2     = fs.Bool("table2", false, "reproduce Table II (full attack)")
		delay      = fs.Bool("delay", false, "run the section IV-A uniform-delay control")
		defenses   = fs.Bool("defenses", false, "evaluate the section VII defence proposals")
		all        = fs.Bool("all", false, "run every experiment")
		trial      = fs.Bool("trial", false, "run one verbose full-attack trial")
		metrics    = fs.Bool("metrics", false, "print a cross-layer metrics summary after each sweep")
		metricsOut = fs.String("metrics-json", "", "write every sweep's metrics snapshot into this one JSON file")
		events     = fs.String("events", "", "dump one full-attack trial's flight-recorder events (value: seed=N or N)")
		evTrace    = fs.String("events-trace", "", "write one trial's flight recorder as Perfetto trace_event JSON to this file (trial from -events, else -seed)")
		status     = fs.String("status", "", "serve live campaign telemetry on this address (/metrics, /status, /events?seed=N); never affects campaign output")
		trials     = fs.Int("trials", 100, "page loads per configuration")
		seed       = fs.Int64("seed", 1, "base seed (trial i uses seed+i)")
		jobs       = fs.Int("j", runtime.GOMAXPROCS(0), "trial worker goroutines per sweep (1 = serial)")
		progress   = fs.Bool("progress", false, "report sweep completion and ETA on stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")

		shardSpec = fs.String("shard", "", "run slice i/N (1-based) of every selected campaign and write a bundle into -shard-dir")
		shardDir  = fs.String("shard-dir", "", "shard: bundle output directory (holds JSONL slices, obs snapshots, checkpoints, manifest)")
		mergeDirs = fs.String("merge", "", "merge completed shard bundles (comma-separated directories); output is byte-identical to a single-process run")

		survey     = fs.Bool("survey", false, "run a survey campaign against a synthetic site corpus")
		corpus     = fs.Int("corpus", 1000, "survey: number of synthetic sites")
		siteTrials = fs.Int("site-trials", 1, "survey: attack repetitions per site")
		export     = fs.String("export", "summary", "survey: comma-separated exporters (summary, jsonl=FILE, obs=FILE)")
		checkpoint = fs.String("checkpoint", "", "survey: checkpoint file for resumable campaigns")
		ckptEvery  = fs.Int("checkpoint-every", 1000, "survey: trials between checkpoint writes")
		maxTrials  = fs.Int("max-trials", 0, "survey: stop (checkpointing) after this many trials this run; 0 = no limit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -memprofile: %v\n", err)
			return 1
		}
		defer func() {
			// The allocation profile is written at exit so it covers
			// the whole run; GC first so the heap samples are current.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "h2attack: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	// The telemetry plane is wall-side only: with -status unset it is
	// inert (nil gauges, no server); either way campaign output is
	// byte-identical.
	tp, err := startTelemetry(*status)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2attack: -status: %v\n", err)
		return 1
	}
	defer tp.shutdown()

	// sweepOpts builds the per-sweep execution options: the worker
	// count plus, with -progress, a stderr ticker, plus the telemetry
	// plane when -status is live. Results do not depend on any of them
	// (trial seeds derive from the trial index).
	sweepOpts := func(name string) []experiment.Option {
		opts := []experiment.Option{experiment.Workers(*jobs)}
		if g := tp.liveGauges(); g != nil {
			opts = append(opts, experiment.Telemetry(g))
		}
		var inner func(runner.Progress)
		if *progress {
			inner = progressPrinter(name)
		}
		if cb := tp.progress(inner); cb != nil {
			opts = append(opts, experiment.OnProgress(cb))
		}
		return opts
	}

	if *all {
		*table1, *fig5, *drops, *table2, *delay, *defenses = true, true, true, true, true, true
	}
	// The fixed sweeps are driven through their shardable definitions
	// (experiment.Sweeps) so single-process, shard, and merge modes all
	// agree on campaign names, fingerprints, and rendered tables.
	selected := map[string]bool{
		"table1": *table1, "fig5": *fig5, "drops": *drops,
		"table2": *table2, "delay": *delay, "defenses": *defenses,
	}
	var defs []experiment.SweepDef
	for _, d := range experiment.Sweeps(*trials, *seed) {
		if selected[d.Name] {
			defs = append(defs, d)
		}
	}

	if *shardSpec != "" && *mergeDirs != "" {
		fmt.Fprintln(os.Stderr, "h2attack: -shard and -merge are mutually exclusive")
		return 2
	}
	if *shardSpec != "" || *mergeDirs != "" {
		smf := shardModeFlags{
			defs:            defs,
			plane:           tp,
			survey:          *survey,
			corpus:          *corpus,
			siteTrials:      *siteTrials,
			seed:            *seed,
			jobs:            *jobs,
			progress:        *progress,
			metrics:         *metrics,
			metricsOut:      *metricsOut,
			export:          *export,
			checkpointEvery: *ckptEvery,
			maxTrials:       *maxTrials,
		}
		if *shardSpec != "" {
			if err := runShardMode(*shardSpec, *shardDir, smf); err != nil {
				fmt.Fprintf(os.Stderr, "h2attack: -shard: %v\n", err)
				return 1
			}
		} else if err := runMergeMode(*mergeDirs, smf); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -merge: %v\n", err)
			return 1
		}
		return 0
	}
	ran := false
	snaps := map[string]*obs.Snapshot{}
	// runSweep executes one sweep, attaching a fresh metrics registry
	// when -metrics or -metrics-json asked for one, and prints the
	// sweep's table followed by its metrics summary.
	runSweep := func(name string, fn func(opts []experiment.Option) string) {
		opts := sweepOpts(name)
		var reg *obs.Registry
		if *metrics || *metricsOut != "" {
			reg = obs.NewRegistry()
			opts = append(opts, experiment.Metrics(reg))
		}
		fmt.Print(fn(opts))
		fmt.Println()
		if reg != nil {
			snap := reg.Snapshot()
			snaps[name] = snap
			if *metrics {
				fmt.Printf("metrics: %s\n%s\n", name, snap.Text())
			}
		}
		ran = true
	}
	for _, d := range defs {
		runSweep(d.Name, func(opts []experiment.Option) string {
			tp.campaign(d.Name, d.Fingerprint(), "", d.Trials)
			return d.Format(d.Run(opts...))
		})
	}
	if *survey {
		err := runSurvey(surveyFlags{
			plane:           tp,
			corpus:          *corpus,
			siteTrials:      *siteTrials,
			seed:            *seed,
			jobs:            *jobs,
			progress:        *progress,
			metrics:         *metrics,
			export:          *export,
			checkpoint:      *checkpoint,
			checkpointEvery: *ckptEvery,
			maxTrials:       *maxTrials,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -survey: %v\n", err)
			return 1
		}
		ran = true
	}
	if *trial {
		runOneTrial(*seed)
		ran = true
	}
	if *events != "" {
		if err := runEventDump(*events); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -events: %v\n", err)
			return 1
		}
		ran = true
	}
	if *evTrace != "" {
		if err := runEventsTrace(*events, *seed, *evTrace); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -events-trace: %v\n", err)
			return 1
		}
		ran = true
	}
	if *metricsOut != "" && len(snaps) > 0 {
		data, err := obs.MarshalSweeps(snaps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -metrics-json: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "h2attack: -metrics-json: %v\n", err)
			return 1
		}
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}

// parseSeedSpec parses a trial selector: the seed, optionally
// prefixed "seed=" (the -events / -events-trace flag value).
func parseSeedSpec(spec string) (int64, error) {
	seed, err := strconv.ParseInt(strings.TrimPrefix(spec, "seed="), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want seed=N or N, got %q", spec)
	}
	return seed, nil
}

// runEventDump replays one full-attack trial with the flight recorder
// attached and prints the recorded event stream. spec is the -events
// flag value: the trial seed, optionally prefixed "seed=".
func runEventDump(spec string) error {
	seed, err := parseSeedSpec(spec)
	if err != nil {
		return err
	}
	w := experiment.NewWorld()
	rec := obs.NewRecorder(4096)
	w.SetRecorder(rec)
	r := w.RunTrial(experiment.TrialParams{Seed: seed, Mode: experiment.ModeFullAttack})
	fmt.Printf("seed %d: flight recorder, full paper attack (broken=%v resets=%d re-requests=%d retransmissions=%d)\n",
		seed, r.Broken, r.Resets, r.ReRequests, r.Retransmissions)
	fmt.Print(rec.Dump())
	return nil
}

// runOneTrial narrates a single full-attack page load.
func runOneTrial(seed int64) {
	r := experiment.RunTrial(experiment.TrialParams{
		Seed: seed,
		Mode: experiment.ModeFullAttack,
	})
	fmt.Printf("seed %d: full paper attack on the survey site\n", seed)
	fmt.Printf("  connection broken:        %v\n", r.Broken)
	fmt.Printf("  page completed:           %v (load time %v)\n", r.PageComplete, r.LoadTime)
	fmt.Printf("  stream resets forced:     %d\n", r.Resets)
	fmt.Printf("  duplicate requests:       %d\n", r.ReRequests)
	fmt.Printf("  total retransmissions:    %d\n", r.Retransmissions)
	fmt.Printf("  result HTML clean copy:   %v (degree of original %.2f)\n", r.HTMLCleanAny, r.HTMLDegree)
	fmt.Printf("  result HTML identified:   %v\n", r.HTMLIdentified)
	fmt.Printf("  survey outcome (truth):   %s\n", partyNames(r.TruthOrder))
	fmt.Printf("  adversary's prediction:   %s\n", partyNames(r.PredOrder))
	correct := 0
	for i := range r.TruthOrder {
		if r.ImageSuccess(i) {
			correct++
		}
	}
	fmt.Printf("  positions recovered:      %d/%d\n", correct, website.PartyCount)
}

func partyNames(order [website.PartyCount]int) string {
	s := ""
	for i, p := range order {
		if i > 0 {
			s += " > "
		}
		if p < 0 || p >= website.PartyCount {
			s += "?"
			continue
		}
		s += website.PartyLabels[p]
	}
	return s
}
