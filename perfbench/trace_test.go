package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "runner.trial", parent: -1, start: 0, end: 100},
		{name: "website.build", parent: 0, start: 10, end: 30},
		{name: "experiment.run_site_trial", parent: 0, start: 40, end: 90},
		{name: "inner", parent: 2, start: 50, end: 60},
		{name: "pipeline.export", parent: -1, start: 95, end: 97},
	}
	want := []int64{30, 20, 40, 10, 2}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	var sum, total int64
	for i, s := range got {
		sum += s
		if spans[i].parent < 0 {
			total += spans[i].dur()
		}
	}
	if sum != total {
		t.Errorf("self times sum to %d, root spans cover %d", sum, total)
	}
}
