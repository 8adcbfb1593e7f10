// Package flagdoc keeps a command's flags and its README flag table
// from drifting apart: Check compares the flags a command registers
// with the rows of the table README documents for it.
package flagdoc

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var flagName = regexp.MustCompile("`-([a-z][a-z0-9-]*)")

// table returns the flag names in the first cell of each row of the
// table that follows the line beginning "`cmd/<command>` —" in readme.
func table(readme io.Reader, command string) (map[string]bool, error) {
	heading := "`cmd/" + command + "` —"
	flags := map[string]bool{}
	inSection, inTable := false, false
	sc := bufio.NewScanner(readme)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, heading):
			inSection = true
		case inSection && strings.HasPrefix(line, "|"):
			inTable = true
			cell := strings.Split(line, "|")[1]
			for _, m := range flagName.FindAllStringSubmatch(cell, -1) {
				flags[m[1]] = true
			}
		case inTable:
			return flags, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("README has no %s flag table", command)
	}
	return flags, nil
}

// Check fails t for every flag fs registers that the README table for
// command lacks, and for every row of that table fs does not register.
func Check(t testing.TB, fs *flag.FlagSet, readmePath, command string) {
	t.Helper()
	f, err := os.Open(readmePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	documented, err := table(f, command)
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	for n := range registered {
		if !documented[n] {
			t.Errorf("flag -%s is registered but has no row in README's %s table", n, command)
		}
	}
	for n := range documented {
		if !registered[n] {
			t.Errorf("README's %s table documents -%s, which %s does not register", command, n, command)
		}
	}
}
