// Package runner executes batches of independent seeded trials
// across a worker pool while preserving the deterministic aggregate
// output of a serial run.
//
// Every sweep in this repository (Tables I/II, Figure 5, the §IV-A
// and §IV-D experiments, the §VII defence evaluation) is N
// independent single-threaded discrete-event simulations, each driven
// entirely by its trial index — a trivially parallel workload.
// StreamWith fans the indices across Workers goroutines and delivers
// the results in index order, so downstream aggregation visits trials
// in exactly the order a serial loop would and produces byte-identical
// tables at any worker count. Determinism therefore rests on one
// caller-side rule: a trial's behaviour must be a pure function of its
// index (derive the seed from the index, never from worker identity or
// shared state).
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
	// Total is the number of trials this run executes, n-Start.
	Total int
	// Elapsed is the wall-clock time since StreamWith started.
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

// Options configures a StreamWith run.
type Options struct {
	// Workers is the number of concurrent trial executors. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int

	// Start is the first trial index to execute; StreamWith runs
	// [Start, n). A checkpointed campaign resumes by setting Start to
	// the index after the last exported trial — because trials are
	// pure functions of their index, the emitted stream continues
	// exactly where the interrupted run left off.
	Start int

	// Batch is the number of consecutive trial indices a worker
	// claims at a time. Chunks are aligned: every claim is exactly
	// Batch indices (the final one may be the remainder), so a
	// campaign whose parameters repeat with period Batch — the
	// survey's SiteTrials repetitions of one site — keeps each
	// period on one worker, letting per-worker state (site cache,
	// primed size tables) amortize across it. Zero or negative
	// claims one index; a Batch larger than the reorder ring is
	// clamped to it. Batching never affects the emitted stream, only
	// which worker runs which trial.
	Batch int

	// Stop, when non-nil, requests a graceful drain when it becomes
	// readable: workers claim no further chunks, every trial already
	// claimed completes and is emitted, then StreamWith returns. At
	// most workers×Batch trials execute after the signal. Draining —
	// rather than abandoning in-flight work the way an emit-side stop
	// does — means every executed trial reaches emit, so side effects
	// recorded during execution (per-worker metrics shards) exactly
	// match the emitted prefix.
	Stop <-chan struct{}

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

// StreamWith executes fn(state, i) for every i in [opts.Start, n)
// across a worker pool and delivers each result to emit in strict
// index order — the streaming core under internal/pipeline. newState
// builds one S per worker goroutine and fn receives that worker's
// state alongside the trial index; this is how the sweeps amortize
// expensive per-trial setup (each worker keeps one reusable trial
// world and resets it per index). Results are never accumulated:
// completed trials are parked in a fixed-size reorder ring of
// max(64, 4×workers) slots until every earlier index has been
// emitted, so a million-trial campaign holds a bounded number of
// results in memory.
//
// emit runs serialized (never concurrently) and in index order. A
// trial that panicked is delivered with the zero value of T and a
// non-nil *TrialError. emit's return value is the continuation
// signal: returning false stops the stream — no further trials are
// admitted, no further results are emitted, and in-flight trials are
// discarded (a resumed run will re-execute them; with index-derived
// seeds they reproduce exactly).
//
// The determinism contract: fn(state, i) must depend only on i,
// treating state purely as a reusable arena (re-initialized from the
// index-derived seed), never as a channel between trials. Which
// worker's state a trial sees depends on scheduling; any state leak
// shows up as worker-count-dependent output. Under that contract the
// emitted (index, result) stream is identical at every worker count
// and batch size.
func StreamWith[S, T any](n int, opts Options, newState func() S, fn func(state S, index int) T, emit func(index int, result T, err *TrialError) bool) {
	if n <= opts.Start {
		return
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Progress covers this run's portion: a resumed campaign reports
	// completion and ETA over the trials it still has to execute.
	total := n - opts.Start
	workers = min(workers, total)
	s := &stream[T]{
		opts:  opts,
		emit:  emit,
		next:  opts.Start,
		head:  opts.Start,
		n:     n,
		total: total,
		begun: time.Now(),
		ring:  make([]slot[T], max(64, 4*workers)),
	}
	s.cond = sync.NewCond(&s.mu)
	s.batch = min(max(opts.Batch, 1), len(s.ring))
	// Trials are wall-clock timed only when a consumer asked — the
	// per-trial callback or the telemetry busy-fraction gauges.
	timed := opts.OnTrialDone != nil || opts.Gauges != nil
	g := opts.Gauges
	g.Set(telemetry.GWorkers, int64(workers))
	g.Set(telemetry.GRingCapacity, int64(len(s.ring)))

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := newState()
			for running := true; running; {
				start, count, ok := s.claim()
				if !ok {
					return
				}
				g.Add(telemetry.GWorkersBusy, 1)
				for i := start; running && i < start+count; i++ {
					result, failure, elapsed := runTrial(i, ws, fn, timed)
					running = s.deliver(i, result, failure, elapsed)
				}
				g.Add(telemetry.GWorkersBusy, -1)
			}
		}()
	}
	wg.Wait()
}

// slot is one parked completion in the reorder ring.
type slot[T any] struct {
	result T
	err    *TrialError
	done   bool
}

// stream is the shared bookkeeping of one StreamWith run, guarded by
// one mutex: the claim cursor, the reorder ring and the emit cursor,
// and the completion counts behind Progress.
type stream[T any] struct {
	opts Options
	emit func(int, T, *TrialError) bool

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when the next chunk fits or the stream stops
	next      int        // next index to hand to a worker
	head      int        // next index to emit
	n         int
	parked    int // completed trials in the ring awaiting an earlier index
	stopped   bool
	ring      []slot[T] // reorder buffer, indexed by index % len(ring)
	batch     int       // claim size, at most len(ring)
	total     int
	completed int
	failed    int
	begun     time.Time
}

// claim hands the calling worker the next chunk of trial indices,
// blocking while the reorder ring lacks room for the whole chunk (so
// a claimed chunk always fits the ring — batch is clamped to the ring
// size). Chunk ends are aligned to absolute multiples of batch,
// so a campaign resumed mid-period re-aligns after one short chunk
// and every later claim covers exactly one period. Returns ok=false
// when the stream is exhausted or stopped, or when a drain was
// requested (already-claimed chunks still deliver — a waiter blocked
// on ring room is woken when their delivery advances the head and
// re-checks the drain before claiming).
func (s *stream[T]) claim() (start, count int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.next >= s.n || stopRequested(s.opts.Stop) {
			return 0, 0, false
		}
		if want, fits := s.nextChunk(); fits {
			start = s.next
			s.next += want
			g := s.opts.Gauges
			g.Add(telemetry.GClaims, 1)
			g.Set(telemetry.GInFlight, int64(s.next-s.head))
			return start, want, true
		}
		s.cond.Wait()
	}
}

// nextChunk sizes the next claim and reports whether it fits the
// ring; the caller holds s.mu.
func (s *stream[T]) nextChunk() (want int, fits bool) {
	want = min(s.batch-s.next%s.batch, s.n-s.next)
	return want, s.next+want <= s.head+len(s.ring)
}

// deliver records one completed trial, parks it in the ring and emits
// every contiguous completed index from the head — all under the one
// stream lock, so the callbacks and emit see a serialized,
// index-ordered stream. The trial always fits the ring: claim
// admitted its chunk only when the chunk's end was within
// head+len(ring), and head only advances. Reports whether the stream
// is still running, so a worker knows to stop.
func (s *stream[T]) deliver(i int, result T, failure *TrialError, elapsed time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	if failure != nil {
		s.failed++
	}
	g := s.opts.Gauges
	g.Add(telemetry.GTrialsDone, 1)
	g.Add(telemetry.GBusyNanos, int64(elapsed))
	if s.opts.OnTrialDone != nil {
		s.opts.OnTrialDone(i, elapsed)
	}
	if s.opts.OnProgress != nil {
		s.opts.OnProgress(s.progress())
	}
	if s.stopped {
		return false
	}
	s.ring[i%len(s.ring)] = slot[T]{result: result, err: failure, done: true}
	s.parked++
	advanced := false
	for s.head < s.n && !s.stopped {
		head := &s.ring[s.head%len(s.ring)]
		if !head.done {
			break
		}
		idx, res, err := s.head, head.result, head.err
		*head = slot[T]{}
		s.head++
		s.parked--
		advanced = true
		s.stopped = !s.emit(idx, res, err)
	}
	g.Set(telemetry.GRingParked, int64(s.parked))
	g.Set(telemetry.GInFlight, int64(s.next-s.head))
	// Wake claimers blocked on ring room once the next chunk fits,
	// or to exit once emit stopped the stream. Nothing else unblocks
	// a claimer: it waits only while earlier claims are in flight.
	if _, fits := s.nextChunk(); advanced && (fits || s.stopped) {
		s.cond.Broadcast()
	}
	return !s.stopped
}

// progress builds the Progress snapshot for the current completion
// counts; the caller holds s.mu.
func (s *stream[T]) progress() Progress {
	p := Progress{
		Completed: s.completed,
		Failed:    s.failed,
		Total:     s.total,
		Elapsed:   time.Since(s.begun),
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

// stopRequested polls a drain channel without blocking.
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// runTrial runs trial i, converting a panic into a TrialError, and
// measures its wall clock when timed.
func runTrial[S, T any](i int, ws S, fn func(S, int) T, timed bool) (result T, failure *TrialError, elapsed time.Duration) {
	var began time.Time
	if timed {
		began = time.Now()
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			failure = &TrialError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
		if timed {
			elapsed = time.Since(began)
		}
	}()
	return fn(ws, i), nil, 0
}
