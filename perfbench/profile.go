package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// shareBuckets are the CPU-share buckets of the sampled profile, in
// report order: the repro/internal packages, then math/rand, garbage
// collection, the rest of the runtime, system calls, and other (frames
// reaching no repro package, such as the benchmark's own code).
var shareBuckets = []string{
	"sim", "netem", "tcpsim", "tlsrec", "h2", "h2sim", "trace", "core", "analysis",
	"website", "experiment", "pipeline", "runner", "jsonenc", "obs", "telemetry",
	"math_rand", "runtime_gc", "runtime_other", "syscall", "other",
}

// stackBuckets are the packages of the simulated per-packet stack; their
// summed share of the CPU gives stack.ns_per_link_send.
var stackBuckets = []string{"sim", "netem", "tcpsim", "tlsrec", "h2", "h2sim"}

// profileShares is a CPU profile folded into share buckets.
type profileShares struct {
	total time.Duration
	// all covers every sample; trial covers the samples taken inside
	// World.RunSiteTrial, which splits that span's self time.
	all, trial map[string]time.Duration
}

func (p profileShares) share(bucket string) float64 {
	if p.total <= 0 {
		return 0
	}
	return float64(p.all[bucket]) / float64(p.total)
}

// trialShare is bucket's share of the samples inside RunSiteTrial.
func (p profileShares) trialShare(bucket string) float64 {
	var sum time.Duration
	for _, d := range p.trial {
		sum += d
	}
	if sum <= 0 {
		return 0
	}
	return float64(p.trial[bucket]) / float64(sum)
}

const runSiteTrialFrame = "repro/internal/experiment.(*World).RunSiteTrial"

// readProfile folds CPU profiles into share buckets, reading their
// merged stacks with the toolchain's own `go tool pprof -traces`.
func readProfile(paths ...string) (profileShares, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...).Output()
	if err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----------+---" rules, each starting with "<value> <leaf frame>"
// followed by one caller frame per line.
func parseTraces(r io.Reader) (profileShares, error) {
	p := profileShares{all: map[string]time.Duration{}, trial: map[string]time.Duration{}}
	var (
		value  time.Duration
		frames []string
	)
	flush := func() {
		if len(frames) > 0 {
			b := bucketOf(frames)
			p.total += value
			p.all[b] += value
			for _, f := range frames {
				if f == runSiteTrialFrame {
					p.trial[b] += value
					break
				}
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue // header lines
		}
		line = strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if line == "" {
			continue
		}
		if len(frames) == 0 {
			v, frame, ok := strings.Cut(line, " ")
			if !ok {
				return p, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return p, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value = d
			line = strings.TrimSpace(frame)
		}
		frames = append(frames, line)
	}
	flush()
	return p, sc.Err()
}

// gcFramePrefixes mark a sample as garbage-collection work wherever
// they appear in its stack.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
}

// bucketOf assigns one sample, leaf frame first, to a share bucket.
// GC work anywhere on the stack is runtime_gc. Otherwise the leaf
// decides: a repro/internal package, math/rand, a system call or the
// runtime. A leaf in other code (strconv, sort, the benchmark itself)
// is charged to the nearest repro/internal caller, or to other.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "runtime_gc"
			}
		}
	}
	leaf := frames[0]
	switch {
	case strings.HasPrefix(leaf, "repro/internal/"):
		return reproBucket(leaf)
	case strings.HasPrefix(leaf, "math/rand."), strings.HasPrefix(leaf, "math/rand/v2."):
		return "math_rand"
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/runtime/syscall."),
		strings.HasPrefix(leaf, "runtime/internal/syscall."), strings.HasPrefix(leaf, "internal/poll."):
		return "syscall"
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/"):
		return "runtime_other"
	}
	for _, f := range frames[1:] {
		if strings.HasPrefix(f, "repro/internal/") {
			return reproBucket(f)
		}
	}
	return "other"
}

// reproBucket maps a repro/internal/<pkg>.<func> frame to <pkg>, or to
// other for a package without a bucket of its own.
func reproBucket(frame string) string {
	pkg, _, _ := strings.Cut(strings.TrimPrefix(frame, "repro/internal/"), ".")
	for _, b := range shareBuckets {
		if b == pkg {
			return b
		}
	}
	return "other"
}
