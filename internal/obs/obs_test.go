package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 46, 47}, {1<<62 + 1, 47},
	}
	for _, c := range cases {
		before := h.Buckets[c.bucket]
		h.Observe(c.v)
		if h.Buckets[c.bucket] != before+1 {
			t.Errorf("Observe(%d): bucket %d not incremented", c.v, c.bucket)
		}
	}
	if h.Count != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count, len(cases))
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	// 100 samples of value 5 (bucket 3, upper bound 7).
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", q, got)
		}
	}
	// Add 1 sample of 1000 (bucket 10, upper bound 1023): p99 crosses.
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 after outlier = %d, want 7", got)
	}
	if got := h.Quantile(0.999); got != 1023 {
		t.Errorf("p99.9 after outlier = %d, want 1023", got)
	}
}

// TestHistMergePartitionInvariance is the histogram half of the
// determinism contract: splitting a sample stream across shards and
// merging gives cells identical to observing serially.
func TestHistMergePartitionInvariance(t *testing.T) {
	samples := make([]int64, 0, 500)
	x := uint64(12345)
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		samples = append(samples, int64(x>>40))
	}
	var serial Hist
	for _, v := range samples {
		serial.Observe(v)
	}
	var a, b, c, merged Hist
	for i, v := range samples {
		switch i % 3 {
		case 0:
			a.Observe(v)
		case 1:
			b.Observe(v)
		default:
			c.Observe(v)
		}
	}
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(&c)
	if merged != serial {
		t.Fatal("merged histogram differs from serial observation")
	}
}

func TestZeroSinkIsSafe(t *testing.T) {
	var k Sink
	if k.Enabled() {
		t.Fatal("zero Sink reports Enabled")
	}
	k.Inc(CTrial)
	k.Add(CH2Request, 7)
	k.Observe(HTCPCwnd, 42)
	k.ObserveDuration(HNetemJitter, time.Millisecond)
	k.Event(time.Second, EvH2Request, 1, 2)

	var nilShard *Shard
	k = nilShard.Sink(3)
	if k.Enabled() {
		t.Fatal("nil-shard Sink reports Enabled")
	}
	k.Inc(CTrial)
}

func TestShardSegmentsAndClamping(t *testing.T) {
	r := NewRegistry()
	r.SetSegments("a", "b")
	s := r.NewShard()
	s.Sink(0).Inc(CTrial)
	s.Sink(1).Add(CTrial, 2)
	s.Sink(-1).Inc(CH2Request) // clamps to segment 0
	s.Sink(99).Inc(CH2Request) // clamps to segment 0
	snap := r.Snapshot()
	if got := snap.Segment("a").Counter("trial.count"); got != 1 {
		t.Errorf("segment a trial.count = %d, want 1", got)
	}
	if got := snap.Segment("b").Counter("trial.count"); got != 2 {
		t.Errorf("segment b trial.count = %d, want 2", got)
	}
	if got := snap.Segment("a").Counter("h2.client.request"); got != 2 {
		t.Errorf("clamped increments = %d, want 2", got)
	}
}

// TestRegistryMergeDeterminism distributes a deterministic workload
// across different shard counts and checks the snapshot text is
// byte-identical — the same invariant the runner relies on at -j 1 vs
// -j 8.
func TestRegistryMergeDeterminism(t *testing.T) {
	const trials = 96
	run := func(shards int) string {
		r := NewRegistry()
		r.SetSegments("s0", "s1", "s2")
		ss := make([]*Shard, shards)
		for i := range ss {
			ss[i] = r.NewShard()
		}
		for trial := 0; trial < trials; trial++ {
			k := ss[trial%shards].Sink(trial % 3)
			k.Inc(CTrial)
			k.Add(CH2Request, uint64(trial%7))
			k.Observe(HTCPCwnd, int64(trial*trial))
		}
		return r.Snapshot().Text()
	}
	ref := run(1)
	for _, n := range []int{2, 3, 8} {
		if got := run(n); got != ref {
			t.Fatalf("snapshot with %d shards differs from 1 shard:\n%s\nvs\n%s", n, got, ref)
		}
	}
	if !strings.Contains(ref, "trial.count") || !strings.Contains(ref, "tcp.cwnd_bytes") {
		t.Fatalf("snapshot text missing expected metrics:\n%s", ref)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(time.Duration(i), EvH2Request, int64(i), 0)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(i + 2); e.A != want {
			t.Errorf("event %d: A = %d, want %d (keep-most-recent order)", i, e.A, want)
		}
	}
	if r.Dropped() != 2 || r.Total() != 6 {
		t.Errorf("Dropped/Total = %d/%d, want 2/6", r.Dropped(), r.Total())
	}
	dump := r.Dump()
	if !strings.Contains(dump, "h2.request") || !strings.Contains(dump, "evicted") {
		t.Fatalf("dump missing expected content:\n%s", dump)
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

func TestSinkAllocationFree(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	k := s.Sink(0)
	rec := NewRecorder(64)
	kr := k.WithRecorder(rec)
	if n := testing.AllocsPerRun(100, func() {
		k.Inc(CTrial)
		k.Add(CH2Request, 3)
		k.Observe(HTCPCwnd, 1000)
		kr.Event(time.Second, EvH2Request, 1, 2)
	}); n != 0 {
		t.Fatalf("enabled sink allocates: %v allocs/op", n)
	}
	var off Sink
	if n := testing.AllocsPerRun(100, func() {
		off.Inc(CTrial)
		off.Observe(HTCPCwnd, 1000)
		off.Event(time.Second, EvH2Request, 1, 2)
	}); n != 0 {
		t.Fatalf("disabled sink allocates: %v allocs/op", n)
	}
}

func TestMarshalSweeps(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	s.Sink(0).Inc(CTrial)
	s.Sink(0).Observe(HTCPCwnd, 100)
	out, err := MarshalSweeps(map[string]*Snapshot{"table1": r.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sweep": "table1"`, `"trial.count"`, `"tcp.cwnd_bytes"`, `"p99_le"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("JSON missing %s:\n%s", want, out)
		}
	}
}

// TestSnapshotDuringTrials takes snapshots while two workers record
// trials, as a periodic checkpoint does. Under -race it pins that the
// snapshot and the workers do not race, and every snapshot must see
// whole trials: both of each trial's counters or neither.
func TestSnapshotDuringTrials(t *testing.T) {
	const workers, trials = 2, 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := r.NewShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < trials; i++ {
				s.Lock()
				k := s.Sink(0)
				k.Inc(CTrial)
				k.Inc(CTrialComplete)
				s.Unlock()
			}
		}()
	}
	check := func(snap *Snapshot) uint64 {
		seg := snap.Segment("all")
		count, complete := seg.Counter("trial.count"), seg.Counter("trial.page_complete")
		if count != complete {
			t.Fatalf("snapshot saw %d trial counts but %d page completions", count, complete)
		}
		return count
	}
	for i := 0; i < 100; i++ {
		check(r.Snapshot())
	}
	wg.Wait()
	if got := check(r.Snapshot()); got != workers*trials {
		t.Fatalf("final snapshot counted %d trials, want %d", got, workers*trials)
	}
}
