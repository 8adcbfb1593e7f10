package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/website"
)

func testSurveyConfig(sites int) SurveyConfig {
	return SurveyConfig{
		Corpus: website.CorpusConfig{
			Seed:       11,
			Sites:      sites,
			MinObjects: 8,
			MaxObjects: 24, // keep test trials quick
		},
		SiteTrials: 1,
		Seed:       1,
	}
}

func runSurveyJSONL(t *testing.T, cfg SurveyConfig, pcfg pipeline.Config, path string) (pipeline.Summary, []byte) {
	t.Helper()
	s := NewSurvey(cfg)
	sum, err := s.Run(pcfg, SurveyJSONL(path))
	if err != nil {
		t.Fatalf("survey run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum, data
}

func TestSurveyIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := testSurveyConfig(12)
	dir := t.TempDir()
	_, a := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 1}, filepath.Join(dir, "j1.jsonl"))
	_, b := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 8}, filepath.Join(dir, "j8.jsonl"))
	if !bytes.Equal(a, b) {
		t.Fatal("survey JSONL differs between -j 1 and -j 8")
	}
	if len(a) == 0 {
		t.Fatal("survey produced no output")
	}
}

func TestSurveyResumeByteIdentical(t *testing.T) {
	cfg := testSurveyConfig(17)
	refDir := t.TempDir()
	_, want := runSurveyJSONL(t, cfg, pipeline.Config{Workers: 4}, filepath.Join(refDir, "ref.jsonl"))

	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	ckpt := filepath.Join(dir, "ck.json")

	// Kill after 9 trials with checkpoints every 4: the last
	// checkpoint is the stop point itself (graceful), but the summary
	// counters must survive the restart too.
	killed := NewSurvey(cfg)
	killedSummary := NewSurveySummary()
	sum, err := killed.Run(pipeline.Config{
		Workers: 4, Checkpoint: ckpt, CheckpointEvery: 4, MaxTrials: 9,
	}, SurveyJSONL(path), killedSummary)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done || sum.Exported != 9 {
		t.Fatalf("interrupted survey: %+v", sum)
	}

	resumed := NewSurvey(cfg)
	resumedSummary := NewSurveySummary()
	sum, err = resumed.Run(pipeline.Config{
		Workers: 4, Checkpoint: ckpt, CheckpointEvery: 4,
	}, SurveyJSONL(path), resumedSummary)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Start != 9 || sum.Exported != 17 {
		t.Fatalf("resumed survey: %+v", sum)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed survey JSONL differs from uninterrupted run")
	}

	// The resumed summary must cover the whole campaign.
	uninterrupted := NewSurvey(cfg)
	fullSummary := NewSurveySummary()
	if _, err := uninterrupted.Run(pipeline.Config{Workers: 4}, fullSummary); err != nil {
		t.Fatal(err)
	}
	if resumedSummary.Format() != fullSummary.Format() {
		t.Fatalf("resumed summary differs:\n%s\nvs uninterrupted:\n%s",
			resumedSummary.Format(), fullSummary.Format())
	}
	trials, _ := resumedSummary.Total()
	if trials != 17 {
		t.Fatalf("resumed summary counted %d trials, want 17", trials)
	}
}

// TestSurveyResumeRefusesShortFile cuts a checkpointed survey's JSONL
// below its checkpointed offset. Truncating to the offset would pad
// the file with NUL bytes, so the resume must fail, name the file,
// and leave it as it was.
func TestSurveyResumeRefusesShortFile(t *testing.T) {
	cfg := testSurveyConfig(12)
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	ckpt := filepath.Join(dir, "ck.json")
	pcfg := pipeline.Config{Workers: 2, Checkpoint: ckpt, CheckpointEvery: 3, MaxTrials: 7}
	if sum, _ := runSurveyJSONL(t, cfg, pcfg, path); sum.Done || sum.Exported != 7 {
		t.Fatalf("interrupted survey: %+v", sum)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	pcfg.MaxTrials = 0
	_, err = NewSurvey(cfg).Run(pcfg, SurveyJSONL(path))
	if err == nil {
		t.Fatal("resume into a short results file succeeded")
	}
	for _, want := range []string{path, "100 bytes", "offset"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, cut) {
		t.Fatalf("refused resume changed the file: %d bytes, was %d", len(after), len(cut))
	}
}

func TestSurveyAttackWorksOnCorpusSites(t *testing.T) {
	cfg := testSurveyConfig(10)
	s := NewSurvey(cfg)
	collect := pipeline.NewCollector[CorpusTrialParams, SurveyResult](s.Trials())
	if _, err := s.Run(pipeline.Config{Workers: 4}, collect); err != nil {
		t.Fatal(err)
	}
	identified, complete := 0, 0
	for _, r := range collect.Results() {
		if r.TargetIdentified {
			identified++
		}
		if r.PageComplete {
			complete++
		}
		if r.Objects == 0 || r.TargetID == 0 {
			t.Fatalf("result missing site spec: %+v", r)
		}
	}
	if identified == 0 {
		t.Fatal("predictor never identified the target across 10 corpus sites")
	}
	if complete == 0 {
		t.Fatal("no corpus page load ever completed")
	}
}
