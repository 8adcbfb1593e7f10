package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

// These tests pin the multi-process contract end to end at the
// experiment layer: a sweep split into contiguous shard slices, each
// serialized across a process-style boundary (JSONL files on disk),
// reassembles into the byte-identical rendered table, and the obs
// state survives checkpointed shard restarts.

// runShardSlices executes def as n contiguous slices into dir,
// returning the concatenated JSONL bytes.
func runShardSlices(t *testing.T, d SweepDef, n int, workers int) []byte {
	t.Helper()
	dir := t.TempDir()
	var cat bytes.Buffer
	for i, r := range shard.Plan(d.Trials, n) {
		path := filepath.Join(dir, "slice.jsonl")
		sum, err := d.RunShard(pipeline.Config{Workers: workers, Start: r.Start, End: r.End}, nil, path)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if !sum.Done || sum.Exported != r.End {
			t.Fatalf("slice %d: %+v", i, sum)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(data)
	}
	return cat.Bytes()
}

func TestSweepShardMergeByteIdentical(t *testing.T) {
	d := delayDef(3, 1)
	want := d.Format(d.Run(Workers(4)))

	for _, shards := range []int{1, 3} {
		cat := runShardSlices(t, d, shards, 2)
		results, err := DecodeTrialResults(bytes.NewReader(cat), d.Trials)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got := d.Format(results); got != want {
			t.Fatalf("%d shards: merged table differs from in-process run:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

func TestSweepShardBrokenOnPanic(t *testing.T) {
	// A shard process must export a panicked trial as the same Broken
	// record runTrials patches into in-process aggregates — not a zero
	// line, and not a dead process. A nil world panics on first use.
	res := brokenOnPanic(nil, TrialParams{})
	if !res.Broken {
		t.Fatal("brokenOnPanic did not convert the panic into a Broken result")
	}
}

func TestSurveyShardMergeByteIdentical(t *testing.T) {
	cfg := SurveyConfig{SiteTrials: 2, Seed: 1}
	cfg.Corpus.Sites = 6
	cfg.Corpus.Seed = 1

	full := filepath.Join(t.TempDir(), "full.jsonl")
	s := NewSurvey(cfg)
	if _, err := s.Run(pipeline.Config{Workers: 4}, SurveyJSONL(full)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	var cat bytes.Buffer
	for i, r := range shard.Plan(s.Trials(), 3) {
		// A fresh Survey per slice: separate processes share nothing.
		ss := NewSurvey(cfg)
		if ss.Fingerprint() != s.Fingerprint() {
			t.Fatal("survey fingerprint not reproducible from config")
		}
		path := filepath.Join(t.TempDir(), "slice.jsonl")
		sum, err := ss.Run(pipeline.Config{Workers: 2, Start: r.Start, End: r.End}, SurveyJSONL(path))
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if !sum.Done {
			t.Fatalf("slice %d: %+v", i, sum)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(data)
	}
	if !bytes.Equal(cat.Bytes(), want) {
		t.Fatal("concatenated survey shard slices differ from single-process JSONL")
	}
}

// TestShardObsExactAcrossInterrupt pins the end-to-end exactness of
// checkpointed shard metrics: a slice interrupted by MaxTrials at
// -j 4 and resumed in a fresh ObsState must report exactly the
// uninterrupted slice's snapshot. This is what MaxTrials-as-end-bound
// buys — under the old emit-side abort, workers raced past the export
// cursor and their metrics were checkpointed, then double-counted
// when the resumed run re-executed those trials.
func TestShardObsExactAcrossInterrupt(t *testing.T) {
	d := delayDef(3, 1)
	dir := t.TempDir()

	ref := NewObsState()
	if _, err := d.RunShard(pipeline.Config{Workers: 4}, ref, filepath.Join(dir, "ref.jsonl")); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(dir, "ck.json")
	out := filepath.Join(dir, "out.jsonl")
	st1 := NewObsState()
	sum, err := d.RunShard(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 2, MaxTrials: 5}, st1, out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done || sum.Exported != 5 {
		t.Fatalf("interrupted run: %+v, want exactly 5 exports", sum)
	}

	st2 := NewObsState()
	sum, err = d.RunShard(pipeline.Config{Workers: 4, Checkpoint: ck, CheckpointEvery: 2}, st2, out)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatalf("resumed run: %+v", sum)
	}
	got, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != want.Text() {
		t.Fatalf("resumed metrics differ from uninterrupted run:\n%s\nvs\n%s", got.Text(), want.Text())
	}
	if n := trialCount(got); n != uint64(d.Trials) {
		t.Fatalf("resumed trial.count = %d, want %d", n, d.Trials)
	}
}

// trialCount sums the trial.count counter over a snapshot's segments.
func trialCount(snap *obs.Snapshot) uint64 {
	var n uint64
	for i := range snap.Segments {
		n += snap.Segments[i].Counter("trial.count")
	}
	return n
}

// TestObsStateSurvivesRestart pins the shard-resume metrics contract:
// an ObsState checkpointed mid-range and restored into a fresh
// process must report the union of both incarnations' observations.
func TestObsStateSurvivesRestart(t *testing.T) {
	whole := NewObsState()
	whole.Reg.SetSegments("a", "b")

	first := NewObsState()
	first.Reg.SetSegments("a", "b")
	trial := func(st *ObsState, seg int, cwnd int64) {
		k := st.Reg.NewShard().Sink(seg)
		k.Inc(obs.CTrial)
		k.Observe(obs.HTCPCwnd, cwnd)
	}
	for i := 0; i < 10; i++ {
		trial(first, i%2, 1000)
		trial(whole, i%2, 1000)
	}
	state, err := first.checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	second := NewObsState()
	second.Reg.SetSegments("a", "b")
	if err := second.restore(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		trial(second, i%2, 2000)
		trial(whole, i%2, 2000)
	}

	got, err := second.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := trialCount(got); n != 17 {
		t.Fatalf("restarted trial.count = %d, want 17", n)
	}
	if got.Text() != want.Text() {
		t.Fatalf("restarted text differs:\n%s\nvs\n%s", got.Text(), want.Text())
	}
	// Repeated snapshots must not double-count the restored base.
	again, err := second.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again.Text() != want.Text() {
		t.Fatalf("second Snapshot() differs:\n%s\nvs\n%s", again.Text(), want.Text())
	}
}

// TestObsStateRestoresNullState covers a survey checkpoint written
// when the obs exporter kept no state: its "null" entry must restore
// no base, so the resumed snapshot is the live registry's alone.
func TestObsStateRestoresNullState(t *testing.T) {
	st := NewObsState()
	st.Reg.SetSegments("a", "b")
	if err := st.restore([]byte("null")); err != nil {
		t.Fatal(err)
	}
	st.Reg.NewShard().Sink(1).Inc(obs.CTrial)
	got, err := st.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after null restore: %v", err)
	}
	if n := trialCount(got); n != 1 {
		t.Fatalf("trial.count = %d, want 1", n)
	}
}
