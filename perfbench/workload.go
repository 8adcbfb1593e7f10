package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/website"
)

// workload is one campaign definition. A run of the benchmark repeats
// the campaign in rounds; every round is the same campaign, so every
// round must export the same bytes.
type workload struct {
	name string

	// corpus bounds the site population; Seed and Sites are filled
	// per run from the seed and the size.
	corpus website.CorpusConfig

	// sites is the corpus size of one round and reps the attack
	// repetitions per site.
	sites int
	reps  int

	mode experiment.AdversaryMode

	// checkpointEvery is the checkpoint cadence in trials; 0 runs
	// without a checkpoint file.
	checkpointEvery int

	// resume stops each round at half its trials (MaxTrials) and
	// resumes it from the checkpoint in a second leg.
	resume bool

	// metrics attaches an obs.Registry and telemetry.Gauges to the
	// campaign, as h2attack -survey -metrics does.
	metrics bool
}

// workloads lists the benchmark's campaigns; BENCHMARK.json names the
// same three, with the reason each was chosen.
var workloads = []workload{
	{
		// The campaign users run: the default corpus, the full attack,
		// and the CLI's checkpoint cadence.
		name:            "survey",
		sites:           1800,
		reps:            2,
		mode:            experiment.ModeFullAttack,
		checkpointEvery: 1000,
	},
	{
		// Few large objects and a passive adversary: the per-packet
		// stack does nearly all the work. Objects stay at or below
		// 100 KB: with objects up to 400 KB the CPU time per trial of
		// one seed swung twice as much from run to run on a shared
		// 2-vCPU host as with these.
		name: "bulk-passive",
		corpus: website.CorpusConfig{
			MinObjects: 12, MaxObjects: 20,
			MinSize: 15_000, MaxSize: 100_000,
		},
		sites: 1000,
		reps:  2,
		mode:  experiment.ModePassive,
	},
	{
		// Many small objects, one trial per site, a checkpoint every
		// 16 trials and a resume halfway: site builds, per-request
		// work, checkpoint/restore and the obs sinks.
		name: "small-resume",
		corpus: website.CorpusConfig{
			MinObjects: 48, MaxObjects: 96,
			MinSize: 300, MaxSize: 12_000,
		},
		sites:           1000,
		reps:            1,
		mode:            experiment.ModeFullAttack,
		checkpointEvery: 16,
		resume:          true,
		metrics:         true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// splitmix64 is one step of the splitmix64 generator, used to derive
// the campaign's seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// surveyConfig derives the campaign for one benchmark seed: the corpus
// seed and the first trial seed are both functions of seed alone, and
// scale divides the corpus size (the tests run at a tiny scale).
func (w workload) surveyConfig(seed int64, scale int) experiment.SurveyConfig {
	corpusSeed := splitmix64(uint64(seed))
	cc := w.corpus
	cc.Seed = corpusSeed
	cc.Sites = max(w.sites/max(scale, 1), 1)
	return experiment.SurveyConfig{
		Corpus:     cc,
		SiteTrials: w.reps,
		// Keep seed0+i far from overflow and away from 0, which
		// NewSurvey would replace.
		Seed: int64(splitmix64(corpusSeed)>>2) + 1,
		Mode: w.mode,
	}
}
