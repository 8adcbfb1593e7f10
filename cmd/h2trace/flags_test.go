package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/flagdoc"
)

// TestREADMEFlagTable compares the flags h2trace registers with the
// rows of README's h2trace flag table, so the two cannot drift apart.
func TestREADMEFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("h2trace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, []string{"-h"}); code != 2 {
		t.Fatalf("run -h = %d, want usage exit 2", code)
	}
	flagdoc.Check(t, fs, "../../README.md", "h2trace")
}
