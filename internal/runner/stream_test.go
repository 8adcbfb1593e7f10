package runner

import (
	"sync"
	"testing"
)

// TestStreamBatchEmitsIdenticalStream checks the batching contract:
// the emitted (index, result) stream is the same at every worker
// count and claim batch — batching only moves work between workers,
// never reorders or changes output.
func TestStreamBatchEmitsIdenticalStream(t *testing.T) {
	const n = 503
	run := func(workers, batch, start int) []int {
		var got []int
		StreamWith(n,
			Options{Workers: workers, Start: start, Batch: batch},
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i * i },
			func(i int, r int, err *TrialError) bool {
				if err != nil {
					t.Errorf("trial %d failed: %v", i, err)
				}
				if r != i*i {
					t.Errorf("trial %d result %d, want %d", i, r, i*i)
				}
				got = append(got, i)
				return true
			})
		return got
	}
	for _, start := range []int{0, 5} {
		want := run(1, 0, start)
		if len(want) != n-start {
			t.Fatalf("serial run emitted %d trials, want %d", len(want), n-start)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, batch := range []int{0, 1, 3, 7, 64, 1000} {
				got := run(workers, batch, start)
				if len(got) != len(want) {
					t.Fatalf("workers=%d batch=%d start=%d: emitted %d trials, want %d",
						workers, batch, start, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d batch=%d start=%d: emit order differs at position %d: %d vs %d",
							workers, batch, start, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamBatchKeepsChunksOnOneWorker checks the amortization
// guarantee: with Batch = B, every aligned B-index period [k*B,
// (k+1)*B) runs entirely on one worker — the property the survey
// relies on so a site's repetitions hit one worker's caches. Also
// covers resume alignment: a Start inside a period re-aligns after
// one short chunk.
func TestStreamBatchKeepsChunksOnOneWorker(t *testing.T) {
	const (
		n     = 240
		batch = 8
	)
	for _, start := range []int{0, 3} {
		var mu sync.Mutex
		workerOf := make(map[int]int, n)
		nextWorker := 0
		StreamWith(n,
			Options{Workers: 4, Start: start, Batch: batch},
			func() *int {
				mu.Lock()
				defer mu.Unlock()
				id := nextWorker
				nextWorker++
				return &id
			},
			func(id *int, i int) int {
				mu.Lock()
				workerOf[i] = *id
				mu.Unlock()
				return i
			},
			func(int, int, *TrialError) bool { return true })
		for period := start / batch; period*batch < n; period++ {
			lo := period * batch
			if lo < start {
				lo = start
			}
			hi := (period + 1) * batch
			if hi > n {
				hi = n
			}
			w, seen := -1, false
			for i := lo; i < hi; i++ {
				id, ok := workerOf[i]
				if !ok {
					t.Fatalf("start=%d: trial %d never ran", start, i)
				}
				if !seen {
					w, seen = id, true
				} else if id != w {
					t.Fatalf("start=%d: period [%d,%d) split across workers %d and %d",
						start, lo, hi, w, id)
				}
			}
		}
	}
}

// TestStreamBatchStopAbandonsChunk checks that an emit-side stop ends
// the stream promptly mid-chunk: nothing past the stop index is
// emitted, and the call returns (no deadlocked workers).
func TestStreamBatchStopAbandonsChunk(t *testing.T) {
	const n = 400
	var emitted []int
	StreamWith(n,
		Options{Workers: 4, Batch: 16},
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) int { return i },
		func(i int, _ int, _ *TrialError) bool {
			emitted = append(emitted, i)
			return i < 57
		})
	if len(emitted) == 0 || emitted[len(emitted)-1] != 57 {
		t.Fatalf("emitted %v, want strict index order ending at the stop index 57", emitted)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emit order broken at position %d: %d", i, idx)
		}
	}
}

// TestStreamBatchClampedToWindow pins the deadlock guard: a batch
// larger than the reorder ring (max(64, 4×workers) slots) is clamped,
// so workers can always claim and the stream completes.
func TestStreamBatchClampedToWindow(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 3} {
		count := 0
		StreamWith(n,
			Options{Workers: workers, Batch: 1 << 20},
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int { return i },
			func(i int, _ int, _ *TrialError) bool {
				if i != count {
					t.Errorf("workers=%d: emit order broken: got %d at position %d", workers, i, count)
					return false
				}
				count++
				return true
			})
		if count != n {
			t.Fatalf("workers=%d: emitted %d of %d trials", workers, count, n)
		}
	}
}

// TestStreamSingleWorkerStopDrainsChunk checks the drain contract on
// a one-worker pool: closing Stop mid-run ends the stream after the
// claimed chunk, so the emitted stream is a strict index prefix, every
// executed trial is emitted, and at most Batch trials execute after
// the signal.
func TestStreamSingleWorkerStopDrainsChunk(t *testing.T) {
	const (
		n     = 200
		batch = 8
	)
	for _, stopAt := range []int{0, 21, 23, 24, 150} {
		stop := make(chan struct{})
		var executed, emitted []int
		afterSignal := 0
		signalled := false
		StreamWith(n,
			Options{Workers: 1, Batch: batch, Stop: stop},
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) int {
				if signalled {
					afterSignal++
				}
				executed = append(executed, i)
				if i == stopAt {
					close(stop)
					signalled = true
				}
				return i
			},
			func(i int, _ int, _ *TrialError) bool {
				emitted = append(emitted, i)
				return true
			})
		if afterSignal > batch {
			t.Errorf("stop at %d: %d trials executed after the signal, want at most %d", stopAt, afterSignal, batch)
		}
		if len(emitted) != len(executed) {
			t.Errorf("stop at %d: executed %d trials but emitted %d", stopAt, len(executed), len(emitted))
		}
		if len(emitted) <= stopAt || len(emitted) == n {
			t.Errorf("stop at %d: emitted %d trials, want the drained prefix", stopAt, len(emitted))
		}
		for k, i := range emitted {
			if i != k {
				t.Fatalf("stop at %d: emitted stream is not an index prefix: %d at position %d", stopAt, i, k)
			}
		}
	}
}
