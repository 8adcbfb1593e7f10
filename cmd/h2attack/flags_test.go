package main

import (
	"bufio"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// readmeFlags returns the flag names in the first cell of each row of
// README's h2attack flag table.
func readmeFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	flags := map[string]bool{}
	inSection, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "`cmd/h2attack` —"):
			inSection = true
		case inSection && strings.HasPrefix(line, "|"):
			inTable = true
			cell := strings.Split(line, "|")[1]
			for _, m := range name.FindAllStringSubmatch(cell, -1) {
				flags[m[1]] = true
			}
		case inTable:
			return flags
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !inTable {
		t.Fatal("README has no h2attack flag table")
	}
	return flags
}

// TestREADMEFlagTable compares the flags h2attack registers with the
// rows of README's h2attack flag table, so the two cannot drift apart.
func TestREADMEFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("h2attack", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := run(fs, nil); code != 2 {
		t.Fatalf("run with no campaign selected = %d, want usage exit 2", code)
	}
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	documented := readmeFlags(t)
	for n := range registered {
		if !documented[n] {
			t.Errorf("flag -%s is registered but has no row in README's h2attack table", n)
		}
	}
	for n := range documented {
		if !registered[n] {
			t.Errorf("README's h2attack table documents -%s, which h2attack does not register", n)
		}
	}
}
