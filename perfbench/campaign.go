package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

type (
	params = experiment.CorpusTrialParams
	result = experiment.SurveyResult
)

// roundResult is what one round (one full campaign, both legs on a
// resume workload) measured.
type roundResult struct {
	trials   int
	setup    time.Duration // sum over legs: leg start until the last exporter's Begin
	wall     time.Duration // sum over legs: Survey.Run start until it returned
	cpu      time.Duration // process user+sys CPU over the legs
	panicked int
	success  int
	check    checkResult
	// service is each trial's service time, by trial index, and p50
	// and p99 its percentiles over the round.
	service  []time.Duration
	p50, p99 time.Duration

	// stealPct is the share of the machine's CPU time the hypervisor
	// gave to other guests during the round.
	stealPct float64

	// mem is the Go runtime's allocation and GC activity over the legs.
	mem memDelta
}

// memDelta is the difference of two runtime.MemStats readings.
type memDelta struct {
	mallocs, allocBytes, gcs, pauseNs uint64
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
	d.gcs += o.gcs
	d.pauseNs += o.pauseNs
}

func memSince(m0 *runtime.MemStats) memDelta {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return memDelta{
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs:        uint64(m1.NumGC - m0.NumGC),
		pauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// roundEnv is how a round runs: where, on how many workers, and
// whether it is traced.
type roundEnv struct {
	dir     string
	workers int
	// onTrialDone receives each trial's service time (pipeline
	// Config.OnTrialDone).
	onTrialDone func(int, time.Duration)
	// tr, when non-nil, makes the round a traced one: the benchmark's
	// own trial function and exporter wrappers record spans, and an
	// obs.Registry collects the stack counts.
	tr *tracer
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// runRound executes one campaign in env.dir from scratch and checks
// its JSONL output. A resume workload runs as two legs: the first stops
// at half the trials (MaxTrials) and the second resumes from the
// checkpoint, each leg building its survey and exporters anew as a
// restarted process would.
func runRound(w workload, cfg experiment.SurveyConfig, env roundEnv) (roundResult, error) {
	var rr roundResult
	if err := os.RemoveAll(env.dir); err != nil {
		return rr, err
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return rr, err
	}
	legs := []int{0}
	if w.resume {
		legs = []int{cfg.Corpus.Sites * cfg.SiteTrials / 2, 0}
	}
	if env.tr != nil {
		if err := env.tr.startProfile(); err != nil {
			return rr, err
		}
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		summary *experiment.SurveySummary
		err     error
	)
	for _, maxTrials := range legs {
		if summary, err = runLeg(w, cfg, env, maxTrials, &rr); err != nil {
			break
		}
	}
	rr.mem = memSince(&m0)
	if env.tr != nil {
		if perr := env.tr.stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return rr, fmt.Errorf("%s: %w", w.name, err)
	}
	_, rr.success = summary.Total()
	rr.check, err = checkJSONL(filepath.Join(env.dir, "results.jsonl"), cfg)
	return rr, err
}

// runLeg runs one invocation of the campaign, as one h2attack -survey
// process would, and adds what it measured to rr. maxTrials > 0 stops
// it there with a checkpoint.
func runLeg(w workload, cfg experiment.SurveyConfig, env roundEnv, maxTrials int, rr *roundResult) (*experiment.SurveySummary, error) {
	start, cpu0 := time.Now(), cpuTime()
	s := experiment.NewSurvey(cfg)
	var (
		reg    *obs.Registry
		gauges *telemetry.Gauges
	)
	if w.metrics || env.tr != nil {
		reg = obs.NewRegistry()
		s.SetMetrics(reg)
	}
	if w.metrics {
		gauges = new(telemetry.Gauges)
	}
	summary := experiment.NewSurveySummary()
	var begun time.Time
	exporters := []pipeline.Exporter[params, result]{
		experiment.SurveyJSONL(filepath.Join(env.dir, "results.jsonl")),
		summary,
		// Exporters begin in order, and the runner dispatches the first
		// trial right after the last Begin: this one marks the end of
		// set-up.
		pipeline.Funcs[params, result]{
			ExporterName: "setup-mark",
			OnBegin:      func(pipeline.Meta) error { begun = time.Now(); return nil },
		},
	}
	pcfg := pipeline.Config{
		Workers:         env.workers,
		CheckpointEvery: w.checkpointEvery,
		MaxTrials:       maxTrials,
		OnTrialDone:     env.onTrialDone,
		Gauges:          gauges,
	}
	if w.checkpointEvery > 0 {
		pcfg.Checkpoint = filepath.Join(env.dir, "checkpoint.json")
	}
	runStart := time.Now()
	var (
		sum pipeline.Summary
		err error
	)
	if env.tr != nil {
		sum, err = env.tr.run(s, cfg.SiteTrials, reg, pcfg, exporters)
	} else {
		sum, err = s.Run(pcfg, exporters...)
	}
	end := time.Now()
	rr.cpu += cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	if begun.IsZero() {
		return nil, fmt.Errorf("exporters never began")
	}
	if maxTrials > 0 && sum.Done {
		return nil, fmt.Errorf("the first leg ran to completion")
	}
	rr.setup += begun.Sub(start)
	rr.wall += end.Sub(runStart)
	rr.trials += sum.Exported - sum.Start
	rr.panicked += len(sum.Failures)
	if env.tr != nil {
		env.tr.snapshot(reg)
	}
	return summary, nil
}
