package main

import (
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// GC work anywhere on the stack, whatever the leaf.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/sim.(*Simulator).push"}, "runtime_gc"},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep"}, "runtime_gc"},
		// Other runtime leaves stay runtime_other, even under a repro frame.
		{[]string{"runtime.memmove", "repro/internal/tlsrec.(*StreamParser).Feed"}, "runtime_other"},
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/website.(*Site).ObjectByPath"}, "runtime_other"},
		// The leaf's repro package, told apart by the full package name.
		{[]string{"repro/internal/h2.(*FrameScanner).FeedInto", "repro/internal/h2sim.(*Client).OnBytes"}, "h2"},
		{[]string{"repro/internal/h2sim.(*Client).handleFrame", "repro/internal/h2.(*FrameScanner).FeedInto"}, "h2sim"},
		{[]string{"repro/internal/sim.(*Simulator).step"}, "sim"},
		{[]string{"repro/internal/shard.Plan"}, "other"}, // no bucket of its own
		{[]string{"math/rand.(*rngSource).Int63", "repro/internal/h2sim.(*worker).serviceInterval"}, "math_rand"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "repro/internal/pipeline.(*writeBehind).run"}, "syscall"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6"}, "syscall"},
		// Non-repro, non-runtime leaves go to the nearest repro caller.
		{[]string{"strconv.AppendInt", "repro/internal/jsonenc.AppendInt", "repro/internal/experiment.AppendSurveyResultLine"}, "jsonenc"},
		{[]string{"sort.insertionSort", "sort.Sort", "main.(*tracer).forEach"}, "other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

const sampleTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms (6.00%)
-----------+-------------------------------------------------------
      30ms   repro/internal/sim.(*Simulator).step
             repro/internal/h2sim.(*Session).Run
             repro/internal/experiment.(*World).RunSiteTrial
             main.(*tracer).run.func2
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             repro/internal/tlsrec.scramble (inline)
             repro/internal/experiment.(*World).RunSiteTrial
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	p, err := parseTraces(strings.NewReader(sampleTraces))
	if err != nil {
		t.Fatal(err)
	}
	if p.total != 60*time.Millisecond {
		t.Fatalf("total = %v, want 60ms", p.total)
	}
	for b, want := range map[string]float64{"sim": 0.5, "runtime_other": 1.0 / 3, "runtime_gc": 1.0 / 6, "h2sim": 0} {
		if got := p.share(b); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("share(%s) = %v, want %v", b, got, want)
		}
	}
	// Inside RunSiteTrial only the first two samples count.
	if got := p.trialShare("sim"); got < 0.6-1e-9 || got > 0.6+1e-9 {
		t.Errorf("trialShare(sim) = %v, want 0.6", got)
	}
	if got := p.trialShare("runtime_gc"); got != 0 {
		t.Errorf("trialShare(runtime_gc) = %v, want 0", got)
	}
}
