package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointRejectsNextOutsideRange edits a real checkpoint's next
// index out of its range. The resume must refuse before any trial
// runs, instead of executing and exporting trial -1.
func TestCheckpointRejectsNextOutsideRange(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	runJSONL(t, dir, n, Config{Checkpoint: ckpt, MaxTrials: 10})
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []string{"-1", "31"} {
		bad := bytes.Replace(data, []byte(`"next": 10`), []byte(`"next": `+next), 1)
		if err := os.WriteFile(ckpt, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		ran := false
		_, err := Run(Config{Checkpoint: ckpt}, testGen(n, "fp1"), noState,
			func(s struct{}, p int) string { ran = true; return testTrial(s, p) },
			NewJSONL(filepath.Join(dir, "out.jsonl"), func(i int, p int, r string) (any, error) { return r, nil }))
		if err == nil || !strings.Contains(err.Error(), "outside its range") {
			t.Errorf("next %s: want out-of-range error, got %v", next, err)
		}
		if ran {
			t.Errorf("next %s: a trial ran before the checkpoint was refused", next)
		}
	}
}

// FuzzCheckpoint feeds arbitrary checkpoint files through the resume
// decoders: loadCheckpoint, verify, and the JSONL exporter's Restore.
// Each input must either be refused or yield a next index inside the
// run's range and non-negative JSONL offsets.
func FuzzCheckpoint(f *testing.F) {
	const n = 57
	dir := f.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	jsonlName := "jsonl:out.jsonl"
	exp := NewJSONL(filepath.Join(dir, "out.jsonl"), func(i int, p int, r string) (any, error) { return r, nil })
	if _, err := Run(Config{Checkpoint: ckpt, CheckpointEvery: 10, MaxTrials: 23}, testGen(n, "fp1"), noState, testTrial, exp); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, edit := range [][2]string{
		{`"next": 23`, `"next": -1`},
		{`"next": 23`, `"next": 58`},
		{`"offset": `, `"offset": -`},
		{`"lines": `, `"lines": -`},
		{`"done": false`, `"done": true`},
	} {
		edited := bytes.Replace(seed, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(edited, seed) {
			f.Fatalf("seed edit %q matches nothing in %s", edit[0], seed)
		}
		f.Add(edited)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := loadCheckpoint(path)
		if err != nil || ck == nil {
			return
		}
		if err := ck.verify("test", "fp1", n, 0, n); err != nil {
			return
		}
		if ck.Next < 0 || ck.Next > n {
			t.Fatalf("verify accepted next %d outside [0, %d]", ck.Next, n)
		}
		state, ok := ck.Exporters[jsonlName]
		if !ok {
			return
		}
		j := NewJSONL(filepath.Join(t.TempDir(), "out.jsonl"), func(i int, p int, r string) (any, error) { return r, nil })
		if err := j.Restore(state); err != nil {
			return
		}
		if j.offset < 0 || j.lines < 0 {
			t.Fatalf("Restore accepted offset %d, lines %d", j.offset, j.lines)
		}
	})
}
