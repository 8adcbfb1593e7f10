// Package runner executes batches of independent seeded trials
// across a worker pool while preserving the deterministic aggregate
// output of a serial run.
//
// Every sweep in this repository (Tables I/II, Figure 5, the §IV-A
// and §IV-D experiments, the §VII defence evaluation) is N
// independent single-threaded discrete-event simulations, each driven
// entirely by its trial index — a trivially parallel workload. Run
// fans the indices [0,n) across Workers goroutines and collects the
// results into an index-ordered slice, so downstream aggregation
// visits trials in exactly the order a serial loop would and produces
// byte-identical tables at any worker count. Determinism therefore
// rests on one caller-side rule: a trial's behaviour must be a pure
// function of its index (derive the seed from the index, never from
// worker identity or shared state).
//
// A panic inside one trial is captured with its stack and reported as
// a TrialError instead of killing the sweep; the remaining trials
// still run. Progress (completed count, elapsed, ETA) is reported
// through an optional callback.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Progress is a snapshot of a running batch, delivered to
// Options.OnProgress after each trial completes. Callbacks are
// serialized by the runner (never invoked concurrently).
type Progress struct {
	// Completed counts finished trials, including failed ones.
	Completed int
	// Failed counts trials that panicked.
	Failed int
	// Total is the batch size n.
	Total int
	// Elapsed is the wall-clock time since Run started.
	Elapsed time.Duration
	// Remaining estimates the wall-clock time left, extrapolating
	// from the mean per-trial cost so far (0 until one trial is done).
	Remaining time.Duration
	// TrialsPerSec is the wall throughput so far, Completed/Elapsed
	// (0 until the clock has advanced). This is the single source of
	// the campaign rate: the -progress ETA line and the telemetry
	// /status endpoint both report this field, so they can never
	// disagree. Wall-clock derived and therefore non-deterministic —
	// like Elapsed/Remaining it must stay out of exported bytes.
	TrialsPerSec float64
}

// Options configures a Run.
type Options struct {
	// Workers is the number of concurrent trial executors. Zero or
	// negative means runtime.GOMAXPROCS(0). Workers == 1 runs the
	// trials inline on the calling goroutine (the serial path).
	Workers int

	// OnProgress, when non-nil, is invoked after every trial
	// completion with a consistent snapshot. It runs on a worker
	// goroutine under the runner's lock; keep it cheap.
	OnProgress func(Progress)

	// OnTrialDone, when non-nil, is invoked after every trial with its
	// index and wall-clock duration (the trial function alone, lock
	// wait excluded). Like OnProgress it runs serialized under the
	// runner's lock; keep it cheap. Trial timing is only measured when
	// this is set, so the default path pays nothing. This is the one
	// source of per-trial latency (perfbench's trial_ms percentiles
	// read it; obs keeps no clock). Wall-clock durations are
	// inherently non-deterministic — consumers must keep them out of
	// any deterministic aggregate.
	OnTrialDone func(index int, elapsed time.Duration)

	// Gauges, when non-nil, receives live health samples: worker-pool
	// size and busy count, cumulative trials/claims/busy-nanoseconds,
	// and reorder-ring occupancy (in-flight and parked trials). The
	// runner only writes gauges — they are sampled by the telemetry
	// status server and never read back, so they cannot influence the
	// emitted stream. Nil (the default) disables the plane at zero
	// cost; setting it enables per-trial wall timing like OnTrialDone.
	Gauges *telemetry.Gauges
}

// TrialError reports a trial that panicked.
type TrialError struct {
	// Index is the trial whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Index, e.Value)
}

// Run executes fn(i) for every i in [0,n) across a worker pool and
// returns the results in index order. Trials that panic leave the
// zero value of T at their index and are reported in the second
// return value, ordered by trial index (nil when every trial
// succeeded). Run itself never panics on a trial failure.
//
// fn must treat its index argument as the trial's only identity: with
// index-derived seeds the returned slice is identical for every
// worker count.
func Run[T any](n int, opts Options, fn func(index int) T) ([]T, []*TrialError) {
	return RunWith(n, opts,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// RunWith is Run with per-worker reusable state: newState builds one
// S per worker goroutine (one total on the serial path) and fn
// receives that worker's state alongside the trial index. This is how
// the sweeps amortize expensive per-trial setup — each worker keeps
// one reusable trial world and resets it per index.
//
// The determinism contract extends accordingly: fn(state, i) must
// return a result that depends only on i, treating state purely as a
// reusable arena (re-initialized from the index-derived seed), never
// as a channel between trials. Which worker's state a trial sees
// depends on scheduling; any state leak shows up as worker-count-
// dependent output.
//
// RunWith is the collect-everything convenience over StreamWith: it
// allocates the full result slice up front. Callers that must stay
// in bounded memory (long campaigns) use StreamWith directly.
func RunWith[S, T any](n int, opts Options, newState func() S, fn func(state S, index int) T) ([]T, []*TrialError) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	var failures []*TrialError
	StreamWith(n, StreamOptions{Options: opts}, newState, fn,
		func(i int, result T, err *TrialError) bool {
			results[i] = result
			if err != nil {
				failures = append(failures, err)
			}
			return true
		})
	return results, failures
}

// defaultWorkers resolves the Workers zero value.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// state is the mutable completion bookkeeping shared by the workers
// of one Run/StreamWith: completion counts and the progress/timing
// callbacks, serialized under one lock.
type state struct {
	mu          sync.Mutex
	completed   int
	failed      int
	total       int
	start       time.Time
	onProgress  func(Progress)
	onTrialDone func(int, time.Duration)
	gauges      *telemetry.Gauges
}

// newRunState builds the completion bookkeeping for a batch of total
// trials.
func newRunState(total int, opts Options) *state {
	return &state{total: total, start: time.Now(), onProgress: opts.OnProgress, onTrialDone: opts.OnTrialDone, gauges: opts.Gauges}
}

// timed reports whether trials must be wall-clock timed (only when a
// consumer asked — the progress-timing callback or the telemetry
// busy-fraction gauges — so the default path pays nothing).
func (st *state) timed() bool { return st.onTrialDone != nil || st.gauges != nil }

// finishOne records one trial completion and fires the callbacks,
// serialized under the state lock.
func (st *state) finishOne(i int, failure *TrialError, elapsed time.Duration) {
	st.mu.Lock()
	st.finishLocked(i, failure, elapsed)
	st.mu.Unlock()
}

// beginFinish/endFinish bracket a run of finishLocked calls so a
// worker delivering a whole chunk pays one lock acquisition for the
// chunk's completion bookkeeping instead of one per trial.
func (st *state) beginFinish() { st.mu.Lock() }
func (st *state) endFinish()   { st.mu.Unlock() }

// finishLocked is finishOne's body; the caller holds st.mu. Callbacks
// still fire once per trial.
func (st *state) finishLocked(i int, failure *TrialError, elapsed time.Duration) {
	st.completed++
	if failure != nil {
		st.failed++
	}
	st.gauges.Add(telemetry.GTrialsDone, 1)
	st.gauges.Add(telemetry.GBusyNanos, int64(elapsed))
	if st.onTrialDone != nil {
		st.onTrialDone(i, elapsed)
	}
	if st.onProgress != nil {
		st.onProgress(st.progressLocked())
	}
}

// progressLocked builds the Progress snapshot for the current
// completion counts; the caller holds st.mu.
func (st *state) progressLocked() Progress {
	p := Progress{
		Completed: st.completed,
		Failed:    st.failed,
		Total:     st.total,
		Elapsed:   time.Since(st.start),
	}
	if p.Completed > 0 && p.Completed < p.Total {
		perTrial := p.Elapsed / time.Duration(p.Completed)
		p.Remaining = perTrial * time.Duration(p.Total-p.Completed)
	}
	if p.Completed > 0 && p.Elapsed > 0 {
		p.TrialsPerSec = float64(p.Completed) / p.Elapsed.Seconds()
	}
	return p
}

// protect runs one trial and converts a panic into a TrialError.
func protect[S, T any](i int, out *T, ws S, fn func(S, int) T) (failure *TrialError) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			failure = &TrialError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	*out = fn(ws, i)
	return nil
}
