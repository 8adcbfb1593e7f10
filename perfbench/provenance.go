package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

// provenance ties a result to the code, machine and seeds that
// produced it.
type provenance struct {
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	SeedKind   string `json:"seed_kind"`
	CorpusSeed uint64 `json:"corpus_seed"`
	TrialSeed0 int64  `json:"trial_seed0"`
	Scale      int    `json:"scale"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newProvenance(o options, cfg experiment.SurveyConfig) provenance {
	p := provenance{
		Revision: "unknown", Modified: "unknown",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Workload: o.workload, Seed: o.seed, SeedKind: o.seedKind,
		CorpusSeed: cfg.Corpus.Seed, TrialSeed0: cfg.Seed, Scale: o.scale, Seconds: o.seconds, Trace: o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat:
// all ticks, and the ticks stolen by the hypervisor for other guests.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealPct is the share of machine CPU time stolen between two
// cpuTicks readings, in percent.
func stealPct(total0, steal0, total1, steal1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "provenance: revision %s (modified %s), %s, nproc %d, GOMAXPROCS %d, cpu %q\n",
		p.Revision, p.Modified, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.CPUModel)
	fmt.Fprintf(w, "seeds: %d (%s) -> corpus seed %d, trial seed0 %d\n", p.Seed, p.SeedKind, p.CorpusSeed, p.TrialSeed0)
}
