package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEncodeErrorAbortsAndLeavesRestorableCheckpoint fails the
// line encoder mid-campaign: the run must surface the error, and the
// checkpoint left behind must resume to a byte-identical file.
func TestEncodeErrorAbortsAndLeavesRestorableCheckpoint(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	mk := func(path string, failAt int) *JSONL[int, string] {
		return NewJSONL(path, func(i int, p int, r string) (any, error) {
			if i == failAt {
				return nil, fmt.Errorf("encode failure at %d", i)
			}
			return map[string]any{"i": i, "r": r}, nil
		})
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	_, err := Run(Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10},
		testGen(n, "fp1"), noState, testTrial, mk(path, 37))
	if err == nil || !strings.Contains(err.Error(), "encode failure at 37") {
		t.Fatalf("want encode failure, got %v", err)
	}
	sum, err := Run(Config{Workers: 4, Checkpoint: ckpt},
		testGen(n, "fp1"), noState, testTrial, mk(path, -1))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !sum.Done || sum.Start != 30 {
		t.Fatalf("resume summary %+v, want done from checkpoint 30", sum)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from uninterrupted reference")
	}
}

// TestWriterErrorAbortsAndLeavesRestorableCheckpoint fails the real
// write path (the JSONL file descriptor dies mid-campaign, as a full
// disk would make it): the campaign must abort with the write error,
// which surfaces at the next checkpoint's flush, and the checkpoint
// before it must still resume to a byte-identical file.
func TestWriterErrorAbortsAndLeavesRestorableCheckpoint(t *testing.T) {
	const n = 57
	refDir := t.TempDir()
	_, want := runJSONL(t, refDir, n, Config{Workers: 4})

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck.json")
	path := filepath.Join(dir, "out.jsonl")
	exp := NewJSONL(path, func(i int, p int, r string) (any, error) {
		return map[string]any{"i": i, "r": r}, nil
	})
	// sabotage runs before the JSONL exporter in the list: at trial 37
	// it closes the file out from under the writer, the way ENOSPC
	// kills a stream mid-write.
	sabotage := Funcs[int, string]{
		ExporterName: "sabotage",
		OnExport: func(i int, p int, r string) error {
			if i == 37 {
				return exp.file.Close()
			}
			return nil
		},
	}
	_, err := Run(Config{Workers: 4, Checkpoint: ckpt, CheckpointEvery: 10},
		testGen(n, "fp1"), noState, testTrial, sabotage, exp)
	if err == nil {
		t.Fatal("want write error after fd death, got nil")
	}
	sum, got := runJSONL(t, dir, n, Config{Workers: 4, Checkpoint: ckpt},
		Funcs[int, string]{ExporterName: "sabotage"})
	if !sum.Done || sum.Start != 30 {
		t.Fatalf("resume summary %+v, want done from checkpoint 30", sum)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from uninterrupted reference")
	}
}

// TestCollectorPreSizesFromMeta pins the Begin-time pre-sizing: a
// zero-capacity collector must reach campaign capacity without
// regrowth during exports.
func TestCollectorPreSizesFromMeta(t *testing.T) {
	c := NewCollector[int, string](0)
	if err := c.Begin(Meta{Trials: 1000}); err != nil {
		t.Fatal(err)
	}
	if cap(c.results) != 1000 {
		t.Fatalf("cap after Begin = %d, want 1000", cap(c.results))
	}
	base := &c.results[:1][0]
	for i := 0; i < 1000; i++ {
		if err := c.Export(i, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if &c.results[0] != base {
		t.Fatal("collector reallocated during exports despite pre-sizing")
	}
}

// TestRunClosesEveryExporter fails the first of two exporters' Close
// on a completed campaign, on one aborted by an export error, and on
// one whose third exporter fails to begin. The second exporter must
// still be closed, and Run must return every error.
func TestRunClosesEveryExporter(t *testing.T) {
	errFirst := errors.New("first close failed")
	errSecond := errors.New("second close failed")
	errExport := errors.New("export failed")
	errBegin := errors.New("begin failed")
	for _, tc := range []struct {
		name      string
		failAt    int
		failBegin bool
		wantErrs  []error
	}{
		{"done", -1, false, []error{errFirst, errSecond}},
		{"aborted", 5, false, []error{errExport, errFirst, errSecond}},
		{"begin failed", -1, true, []error{errBegin, errFirst, errSecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secondClosed := false
			first := Funcs[int, string]{
				ExporterName: "first",
				OnExport: func(i int, p int, r string) error {
					if i == tc.failAt {
						return errExport
					}
					return nil
				},
				OnClose: func(bool) error { return errFirst },
			}
			second := Funcs[int, string]{
				ExporterName: "second",
				OnClose:      func(bool) error { secondClosed = true; return errSecond },
			}
			third := Funcs[int, string]{
				ExporterName: "third",
				OnBegin: func(Meta) error {
					if tc.failBegin {
						return errBegin
					}
					return nil
				},
			}
			_, err := Run(Config{Workers: 2}, testGen(10, ""), noState, testTrial, first, second, third)
			if !secondClosed {
				t.Error("second exporter was not closed after the first Close failed")
			}
			for _, want := range tc.wantErrs {
				if !errors.Is(err, want) {
					t.Errorf("Run error %v does not include %v", err, want)
				}
			}
		})
	}
}

// TestJSONLCloseReportsFlushAndCloseErrors kills the file under a
// JSONL exporter with lines still buffered: Close must report both
// the failed flush and the failed file close.
func TestJSONLCloseReportsFlushAndCloseErrors(t *testing.T) {
	exp := NewJSONL(filepath.Join(t.TempDir(), "out.jsonl"), func(i int, p int, r string) (any, error) { return r, nil })
	if err := exp.Begin(Meta{Trials: 1}); err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(0, 0, "buffered"); err != nil {
		t.Fatal(err)
	}
	if err := exp.file.Close(); err != nil {
		t.Fatal(err)
	}
	err := exp.Close(false)
	if err == nil {
		t.Fatal("Close over a dead file returned nil")
	}
	if joined, ok := err.(interface{ Unwrap() []error }); !ok || len(joined.Unwrap()) != 2 {
		t.Fatalf("Close returned %v, want the flush and the close error joined", err)
	}
}
