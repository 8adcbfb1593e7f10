package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiment"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/website"
)

// surveyFlags carries the -survey mode's configuration out of main.
type surveyFlags struct {
	plane      *telemetryPlane
	corpus     int
	siteTrials int
	seed       int64
	jobs       int
	progress   bool
	metrics    bool

	export          string
	checkpoint      string
	checkpointEvery int
	maxTrials       int
}

// newSurvey builds the survey campaign from the -corpus,
// -site-trials and -seed flags. Single-process, shard and merge modes
// all build it here, so they agree on the fingerprint.
func newSurvey(corpus, siteTrials int, seed int64) (*experiment.Survey, error) {
	if corpus <= 0 {
		return nil, fmt.Errorf("-corpus must be positive, got %d", corpus)
	}
	return experiment.NewSurvey(experiment.SurveyConfig{
		Corpus:     website.CorpusConfig{Seed: uint64(seed), Sites: corpus},
		SiteTrials: max(siteTrials, 1),
		Seed:       seed,
	}), nil
}

// exportSpec is one -export entry: kind "summary", or "jsonl"/"obs"
// with the output file in path.
type exportSpec struct {
	kind, path string
}

// parseExport parses the comma-separated -export list in order. A
// repeated summary is kept once; an empty list is an error.
func parseExport(list string) ([]exportSpec, error) {
	var specs []exportSpec
	summary := false
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(spec, "=")
		switch {
		case name == "summary" && !hasArg:
			if !summary {
				summary = true
				specs = append(specs, exportSpec{kind: name})
			}
		case (name == "jsonl" || name == "obs") && hasArg:
			specs = append(specs, exportSpec{kind: name, path: arg})
		default:
			return nil, fmt.Errorf("-export: unknown spec %q (want summary, jsonl=FILE, or obs=FILE)", spec)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-export: no exporters configured")
	}
	return specs, nil
}

// runSurvey executes a survey campaign: the paper's attack against a
// synthetic site corpus, streamed through the pipeline to the
// exporters named by -export, with optional checkpoint/resume.
func runSurvey(f surveyFlags) error {
	s, err := newSurvey(f.corpus, f.siteTrials, f.seed)
	if err != nil {
		return err
	}
	specs, err := parseExport(f.export)
	if err != nil {
		return err
	}

	var (
		exporters []pipeline.Exporter[experiment.CorpusTrialParams, experiment.SurveyResult]
		summary   *experiment.SurveySummary
		st        *experiment.ObsState
	)
	if f.metrics {
		st = experiment.NewObsState()
	}
	for _, e := range specs {
		switch e.kind {
		case "summary":
			summary = experiment.NewSurveySummary()
			exporters = append(exporters, summary)
		case "jsonl":
			exporters = append(exporters, experiment.SurveyJSONL(e.path))
		case "obs":
			if st == nil {
				st = experiment.NewObsState()
			}
			exporters = append(exporters, experiment.SurveyObsExport(st, e.path))
		}
	}
	if st != nil {
		s.SetMetrics(st.Reg)
	}

	f.plane.campaign(s.Name(), s.Fingerprint(), "", s.Trials())
	pcfg := pipeline.Config{
		Workers:         f.jobs,
		Checkpoint:      f.checkpoint,
		CheckpointEvery: f.checkpointEvery,
		MaxTrials:       f.maxTrials,
		Stop:            interruptChannel(),
		Gauges:          f.plane.liveGauges(),
	}
	var inner func(runner.Progress)
	if f.progress {
		inner = progressPrinter("survey")
	}
	pcfg.OnProgress = f.plane.progress(inner)

	sum, err := s.Run(pcfg, exporters...)
	if err != nil {
		return err
	}
	fmt.Printf("survey: %d sites x %d trials, %d/%d trials exported (this run: %d)\n",
		f.corpus, s.Trials()/f.corpus, sum.Exported, sum.Trials, sum.Exported-sum.Start)
	if len(sum.Failures) > 0 {
		fmt.Printf("survey: %d trials panicked and were exported as zero results\n", len(sum.Failures))
	}
	if !sum.Done {
		if f.checkpoint != "" {
			fmt.Printf("survey: stopped at trial %d; rerun with the same flags and -checkpoint %s to resume\n",
				sum.Exported, f.checkpoint)
		} else {
			fmt.Println("survey: stopped (no -checkpoint, progress not saved)")
		}
		return nil
	}
	if summary != nil {
		fmt.Println()
		fmt.Print(summary.Format())
	}
	if f.metrics {
		snap, err := st.Snapshot()
		if err != nil {
			return err
		}
		fmt.Printf("\nmetrics: survey\n%s\n", snap.Text())
	}
	return nil
}

// interruptChannel returns a channel closed on the first SIGINT, so a
// long campaign checkpoints and exits cleanly; a second SIGINT kills
// the process as usual.
func interruptChannel() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "survey: interrupt — checkpointing and stopping")
		close(stop)
		signal.Stop(sigc)
	}()
	return stop
}
