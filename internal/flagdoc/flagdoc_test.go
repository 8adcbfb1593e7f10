package flagdoc

import (
	"reflect"
	"strings"
	"testing"
)

const readme = "# Tool\n\n`cmd/a` — first:\n\n| flag | meaning |\n|---|---|\n" +
	"| `-x N` / `-y` | both |\n| `-long-name D` | one |\n\nprose `-notaflag`\n\n" +
	"`cmd/b` — second:\n\n| flag | meaning |\n|---|---|\n| `-z` | z |\n"

func TestTable(t *testing.T) {
	for cmd, want := range map[string]map[string]bool{
		"a": {"x": true, "y": true, "long-name": true},
		"b": {"z": true},
	} {
		got, err := table(strings.NewReader(readme), cmd)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("table(%s) = %v, %v; want %v", cmd, got, err, want)
		}
	}
	if _, err := table(strings.NewReader(readme), "c"); err == nil {
		t.Error("table found a table for an undocumented command")
	}
}
