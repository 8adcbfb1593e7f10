package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
)

// checkResult is the output check of one campaign's JSONL file.
type checkResult struct {
	lines  int      // lines in the file
	bad    int      // lines that fail the check, plus missing lines
	digest [32]byte // sha256 of the whole file
	bytes  int64    // file size
	first  string   // the first problem found, for the report
}

// checkJSONL verifies a finished campaign's JSONL: every line decodes
// as a SurveyResult with no unknown fields, there is one line per
// trial, and line i is trial i (trial_seed is seed0+i, and site and
// rep follow from i).
func checkJSONL(path string, cfg experiment.SurveyConfig) (checkResult, error) {
	var c checkResult
	f, err := os.Open(path)
	if err != nil {
		return c, err
	}
	defer f.Close()
	h := sha256.New()
	reps := max(cfg.SiteTrials, 1)
	want := cfg.Corpus.Sites * reps
	sc := bufio.NewScanner(io.TeeReader(f, h))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		i := c.lines
		c.lines++
		var r experiment.SurveyResult
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var problem string
		switch {
		case dec.Decode(&r) != nil:
			problem = "does not decode as a survey result"
		case dec.More():
			problem = "has trailing data"
		case r.TrialSeed != cfg.Seed+int64(i):
			problem = fmt.Sprintf("has trial_seed %d, want %d", r.TrialSeed, cfg.Seed+int64(i))
		case r.Index != i/reps || r.Rep != i%reps:
			problem = fmt.Sprintf("is site %d rep %d, want site %d rep %d", r.Index, r.Rep, i/reps, i%reps)
		}
		if problem != "" {
			c.bad++
			if c.first == "" {
				c.first = fmt.Sprintf("line %d %s", i+1, problem)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("read %s: %w", path, err)
	}
	// The scanner read to EOF, so the hash has seen every byte.
	h.Sum(c.digest[:0])
	fi, err := f.Stat()
	if err != nil {
		return c, err
	}
	c.bytes = fi.Size()
	if c.lines != want {
		if c.first == "" {
			c.first = fmt.Sprintf("%d lines for %d trials", c.lines, want)
		}
		if c.lines < want {
			c.bad += want - c.lines
		}
	}
	return c, nil
}
