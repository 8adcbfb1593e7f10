package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// workload populates a registry with a deterministic slice [lo, hi) of
// a synthetic trial stream — the single-process reference is
// workload(0, n), a sharded run is workload(0,k) + workload(k,n).
func workload(t *testing.T, lo, hi int) *Registry {
	t.Helper()
	r := NewRegistry()
	r.SetSegments("s0", "s1")
	s := r.NewShard()
	for i := lo; i < hi; i++ {
		k := s.Sink(i % 2)
		k.Inc(CTrial)
		k.Add(CH2Request, uint64(i%5))
		k.Observe(HTCPCwnd, int64(i*i))
	}
	return r
}

// roundTrip pushes a snapshot through its JSON wire form — the
// process boundary a shard bundle crosses.
func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out := &Snapshot{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

func TestSnapshotJSONRoundTripPreservesDeterministicText(t *testing.T) {
	snap := workload(t, 0, 50).Snapshot()
	got := roundTrip(t, snap)
	if got.Text() != snap.Text() {
		t.Fatalf("round trip changed text:\n%s\nvs\n%s", got.Text(), snap.Text())
	}
}

// TestSnapshotMergePartitionInvariance is the merge driver's core
// contract: any contiguous partition of the trial stream, serialized
// across a process-style boundary and merged back, formats exactly
// like the unpartitioned run.
func TestSnapshotMergePartitionInvariance(t *testing.T) {
	const n = 60
	ref := workload(t, 0, n).Snapshot()
	for _, cuts := range [][]int{{30}, {1}, {59}, {20, 40}, {10, 20, 30, 40, 50}} {
		bounds := append(append([]int{0}, cuts...), n)
		var merged *Snapshot
		for i := 0; i+1 < len(bounds); i++ {
			part := roundTrip(t, workload(t, bounds[i], bounds[i+1]).Snapshot())
			if merged == nil {
				merged = part
				continue
			}
			if err := merged.Merge(part); err != nil {
				t.Fatalf("cuts %v: merge: %v", cuts, err)
			}
		}
		if merged.Text() != ref.Text() {
			t.Fatalf("cuts %v: merged text differs:\n%s\nvs\n%s", cuts, merged.Text(), ref.Text())
		}
	}
}

func TestSnapshotMergeCommutes(t *testing.T) {
	a1 := roundTrip(t, workload(t, 0, 25).Snapshot())
	b1 := roundTrip(t, workload(t, 25, 60).Snapshot())
	a2 := roundTrip(t, workload(t, 0, 25).Snapshot())
	b2 := roundTrip(t, workload(t, 25, 60).Snapshot())
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Merge(a2); err != nil {
		t.Fatal(err)
	}
	if a1.Text() != b2.Text() {
		t.Fatalf("merge order changed text:\n%s\nvs\n%s", a1.Text(), b2.Text())
	}
}

// TestSnapshotDecodesWallFormat pins compatibility with snapshots
// written while obs still carried a wall-clock section (checkpoints
// and shard bundles from that format must still resume and merge):
// the "wall" and "elapsed_ns" keys decode to nothing, and the old
// snapshot merges and renders exactly like the same cells without
// them.
func TestSnapshotDecodesWallFormat(t *testing.T) {
	const cells = `"segments":[{"label":"s0","counters":[{"name":"trial.count","value":3},` +
		`{"name":"h2.client.request","value":7}],"histograms":[{"name":"tcp.cwnd_bytes",` +
		`"count":3,"sum":21,"p50_le":7,"p99_le":15,"buckets":[{"le":7,"count":2},{"le":15,"count":1}]}]},` +
		`{"label":"s1","counters":[{"name":"trial.count","value":2}]}]`
	const wall = `"wall":{"trials":5,"sum_ns":15000000,"mean_ns":3000000,"p50_le_ns":4194303,` +
		`"p99_le_ns":4194303,"buckets":[{"le":2097151,"count":2},{"le":4194303,"count":3}]},` +
		`"elapsed_ns":2500000000`
	decode := func(in string) *Snapshot {
		t.Helper()
		s := &Snapshot{}
		if err := json.Unmarshal([]byte(in), s); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		return s
	}
	old := decode("{" + cells + "," + wall + "}")
	plain := decode("{" + cells + "}")
	if old.Text() != plain.Text() {
		t.Fatalf("old-format snapshot renders differently:\n%s\nvs\n%s", old.Text(), plain.Text())
	}
	live := workload(t, 0, 10).Snapshot()
	if err := old.Merge(live); err != nil {
		t.Fatalf("merge old-format snapshot: %v", err)
	}
	if err := plain.Merge(live); err != nil {
		t.Fatal(err)
	}
	if old.Text() != plain.Text() {
		t.Fatalf("merged old-format snapshot differs:\n%s\nvs\n%s", old.Text(), plain.Text())
	}
	if got := old.Segment("s0").Counter("trial.count"); got != 3+5 {
		t.Fatalf("merged s0 trial.count = %d, want 8", got)
	}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"wall"`) || strings.Contains(string(data), `"elapsed_ns"`) {
		t.Fatalf("re-encoded snapshot still carries wall-clock keys:\n%s", data)
	}
}

func TestSnapshotMergeRejectsSegmentMismatch(t *testing.T) {
	a := workload(t, 0, 10).Snapshot()

	other := NewRegistry()
	other.SetSegments("different")
	if err := a.Merge(other.Snapshot()); err == nil {
		t.Fatal("want segment count mismatch error")
	}

	relabeled := NewRegistry()
	relabeled.SetSegments("s0", "WRONG")
	if err := a.Merge(relabeled.Snapshot()); err == nil || !strings.Contains(err.Error(), "label mismatch") {
		t.Fatalf("want label mismatch error, got %v", err)
	}
}

func TestSnapshotUnmarshalRejectsUnknownNames(t *testing.T) {
	in := `{"segments":[{"label":"a","counters":[{"name":"no.such.counter","value":3}]}]}`
	s := &Snapshot{}
	if err := json.Unmarshal([]byte(in), s); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(&Snapshot{Segments: []SegmentSnapshot{{Label: "a"}}}); err == nil {
		t.Fatal("want unknown-counter error from merge")
	}
}
