package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/flagdoc"
)

// TestREADMEFlagTable compares the flags h2attack registers with the
// rows of README's h2attack flag table, so the two cannot drift apart.
func TestREADMEFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("h2attack", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, nil); code != 2 {
		t.Fatalf("run with no campaign selected = %d, want usage exit 2", code)
	}
	flagdoc.Check(t, fs, "../../README.md", "h2attack")
}
