package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// tracedPass is the traced rounds of a --trace 1 run and their CPU
// profile.
type tracedPass struct {
	tr     *tracer
	rounds []roundResult
	prof   profileShares
}

// startProfile starts the CPU profile of one traced round.
func (t *tracer) startProfile() error {
	path := filepath.Join(t.profileDir, "cpu-"+strconv.Itoa(len(t.profiles))+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profiles = append(t.profiles, path)
	t.profileFile = f
	return nil
}

// stopProfile ends the round's CPU profile.
func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	return t.profileFile.Close()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total int64   // summed durations, ns
	self  int64   // summed self times, ns
	durs  []int64 // every duration, ns
}

func (s *spanStats) pctUs(pct int) float64 {
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	d := slices.Clone(s.durs)
	slices.Sort(d)
	v, _ := percentile(d, pct)
	return float64(v) / 1e3
}

// obsTotals sums the counters and merges the histograms of every
// traced leg's registry snapshot.
type obsTotals struct {
	counters map[string]uint64
	hists    map[string]*obs.Hist
}

func sumSnapshots(snaps []*obs.Snapshot) obsTotals {
	t := obsTotals{counters: map[string]uint64{}, hists: map[string]*obs.Hist{}}
	for _, snap := range snaps {
		for _, seg := range snap.Segments {
			for _, c := range seg.Counters {
				t.counters[c.Name] += c.Value
			}
			for _, h := range seg.Hists {
				if t.hists[h.Name] == nil {
					t.hists[h.Name] = &obs.Hist{}
				}
				t.hists[h.Name].Merge(&h.Hist)
			}
		}
	}
	return t
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// ledgerRow is one layer's share of a traced trial.
type ledgerRow struct {
	layer   string
	nsTrial float64
	counts  string
}

// ledger is the per-layer table of a traced trial: span self times,
// with World.RunSiteTrial's self time split by the sampled CPU shares.
type ledger struct {
	rows        []ledgerRow
	wallNsTrial float64 // workers x traced wall / traced trials
	residualPct float64
}

func (l ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger (traced pass, worker time per trial %.0f ns):\n", l.wallNsTrial)
	fmt.Fprintf(w, "  %-14s %12s %8s  %s\n", "layer", "ns/trial", "share", "counts")
	for _, r := range l.rows {
		fmt.Fprintf(w, "  %-14s %12.0f %7.2f%%  %s\n", r.layer, r.nsTrial, 100*ratio(r.nsTrial, l.wallNsTrial), r.counts)
	}
	fmt.Fprintf(w, "  ledger.residual_pct %.2f%%\n", l.residualPct)
}

// perLayer fills rep with the per-layer metrics and builds the ledger.
// The runtime.* metrics come from the untraced rounds.
func (tp *tracedPass) perLayer(rep report, untraced roundsSummary, workers int) ledger {
	var (
		trials     int
		wall, cpu  time.Duration
		jsonlBytes int64
	)
	for _, rr := range tp.rounds {
		trials += rr.trials
		wall += rr.wall
		cpu += rr.cpu
		jsonlBytes += rr.check.bytes
	}
	nt := float64(trials)
	stats := map[string]*spanStats{}
	var checkpoints []int64 // duration of each checkpoint (all exporters)
	tp.tr.forEach(func(_ int, s span, self int64) {
		st := stats[s.name]
		if st == nil {
			st = &spanStats{}
			stats[s.name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += self
		st.durs = append(st.durs, s.dur())
	})
	// A checkpoint calls every exporter's Checkpoint back to back on
	// the exporter track; each run of such spans is one checkpoint.
	inCkpt := false
	var ckptStart int64
	spans := tp.tr.exporters.spans
	for i, s := range spans {
		if s.name != "pipeline.checkpoint" {
			inCkpt = false
			continue
		}
		if !inCkpt {
			inCkpt, ckptStart = true, s.start
		}
		if i+1 == len(spans) || spans[i+1].name != "pipeline.checkpoint" {
			checkpoints = append(checkpoints, s.end-ckptStart)
		}
	}
	slices.Sort(checkpoints)

	o := sumSnapshots(tp.tr.snaps)
	perTrial := func(name string) float64 { return float64(o.counters[name]) / nt }
	sends := perTrial("netem.link.send")

	rep["website.build_us_p50"] = stats["website.build"].pctUs(50)
	rep["website.builds_per_trial"] = float64(countOf(stats["website.build"])) / nt
	rep["experiment.run_site_trial_us_p50"] = stats["experiment.run_site_trial"].pctUs(50)
	rep["experiment.run_site_trial_us_p99"] = stats["experiment.run_site_trial"].pctUs(99)
	rep["netem.sends_per_trial"] = sends
	rep["netem.drop_ratio"] = ratio(float64(o.counters["netem.drop.loss"]+o.counters["netem.drop.queue"]), float64(o.counters["netem.link.send"]))
	if h := o.hists["netem.queue_wait_ns"]; h != nil {
		rep["netem.queue_wait_us_p50"] = float64(h.Quantile(0.5)) / 1e3
	} else {
		rep["netem.queue_wait_us_p50"] = 0
	}
	rep["tcpsim.segments_per_trial"] = perTrial("tcp.seg.sent")
	rep["tcpsim.retx_ratio"] = ratio(float64(o.counters["tcp.retransmit"]), float64(o.counters["tcp.seg.sent"]))
	rep["tcpsim.rto_per_trial"] = perTrial("tcp.retx.timeout")
	rep["h2sim.requests_per_trial"] = perTrial("h2.client.request")
	rep["h2sim.rerequests_per_trial"] = perTrial("h2.client.rerequest")
	rep["h2sim.reset_rounds_per_trial"] = perTrial("h2.client.reset_round")
	rep["h2sim.dup_copy_ratio"] = ratio(float64(o.counters["h2.server.dup_copy"]), float64(o.counters["h2.server.worker_spawned"]))
	rep["core.held_per_trial"] = perTrial("attack.ctl.held")
	rep["core.dropped_per_trial"] = perTrial("attack.ctl.dropped")
	rep["core.reset_bursts_per_trial"] = perTrial("attack.mon.reset_burst")
	rep["core.identified_ratio"] = ratio(float64(o.counters["attack.pred.identified"]),
		float64(o.counters["attack.pred.identified"]+o.counters["attack.pred.unknown"]))

	stackShare := 0.0
	for _, b := range stackBuckets {
		stackShare += tp.prof.share(b)
	}
	for _, b := range shareBuckets {
		rep["cpu_share."+b] = 100 * tp.prof.share(b)
	}
	cpuNsTrial := float64(cpu) / nt
	rep["stack.ns_per_link_send"] = ratio(stackShare*cpuNsTrial, sends)

	var export *spanStats
	for name, st := range stats {
		if strings.HasPrefix(name, "pipeline.export:jsonl") {
			export = st
		}
	}
	nr := float64(len(tp.rounds))
	rep["pipeline.export_us_p50"] = export.pctUs(50)
	rep["pipeline.export_bytes_per_trial"] = float64(jsonlBytes) / nt
	rep["pipeline.checkpoints"] = float64(len(checkpoints)) / nr
	if len(checkpoints) > 0 {
		v, _ := percentile(checkpoints, 50)
		rep["pipeline.checkpoint_ms_p50"] = float64(v) / 1e6
	} else {
		rep["pipeline.checkpoint_ms_p50"] = 0
	}
	rep["pipeline.restore_ms"] = float64(totalOf(stats["pipeline.restore"])) / 1e6 / nr
	rep["pipeline.close_ms"] = float64(totalOf(stats["pipeline.close"])) / 1e6 / nr

	workerNs := float64(workers) * float64(wall)
	busy := ratio(float64(totalOf(stats["runner.trial"])), workerNs)
	rep["runner.busy_share"] = busy
	rep["runner.wait_share"] = 1 - busy
	rep["obs.snapshot_ms"] = stats["obs.snapshot"].pctUs(50) / 1e3

	ut := float64(untraced.trials)
	m := untraced.mem
	rep["runtime.allocs_per_trial"] = float64(m.mallocs) / ut
	rep["runtime.alloc_kb_per_trial"] = float64(m.allocBytes) / 1024 / ut
	rep["runtime.gc_per_1k_trials"] = 1000 * float64(m.gcs) / ut
	rep["runtime.gc_pause_ms"] = ratio(float64(m.pauseNs)/1e6, float64(m.gcs))
	traced := summarize(tp.rounds).trialsPerS
	rep["trace.overhead_pct"] = 100 * (untraced.trialsPerS - traced) / untraced.trialsPerS

	// The ledger: each span's self time goes to the layer its name
	// starts with, except World.RunSiteTrial's, which the profile
	// splits across the packages it sampled inside that call.
	ns := map[string]float64{}
	for name, st := range stats {
		layer, _, _ := strings.Cut(name, ".")
		if name != "experiment.run_site_trial" {
			ns[layer] += float64(st.self)
			continue
		}
		split := 0.0
		for _, b := range shareBuckets {
			sh := tp.prof.trialShare(b)
			ns[b] += sh * float64(st.self)
			split += sh
		}
		ns["experiment"] += (1 - split) * float64(st.self) // no samples inside the call
	}
	counts := map[string]string{
		"website":    fmt.Sprintf("builds/trial %.2f", rep["website.builds_per_trial"]),
		"experiment": fmt.Sprintf("trials %d", trials),
		"netem":      fmt.Sprintf("sends/trial %.0f", sends),
		"tcpsim":     fmt.Sprintf("segments/trial %.0f", rep["tcpsim.segments_per_trial"]),
		"h2sim":      fmt.Sprintf("requests/trial %.1f", rep["h2sim.requests_per_trial"]),
		"core":       fmt.Sprintf("held/trial %.1f", rep["core.held_per_trial"]),
		"pipeline":   fmt.Sprintf("exports/trial %.2f, checkpoints %d", float64(countOf(export))/nt, len(checkpoints)),
		"runner":     fmt.Sprintf("workers %d, busy %.3f", workers, busy),
		"obs":        fmt.Sprintf("snapshots %d", countOf(stats["obs.snapshot"])),
	}
	l := ledger{wallNsTrial: workerNs / nt}
	sum := 0.0
	for _, b := range shareBuckets {
		v := ns[b] / nt
		sum += v
		l.rows = append(l.rows, ledgerRow{layer: b, nsTrial: v, counts: counts[b]})
	}
	l.residualPct = 100 * ratio(l.wallNsTrial-sum, l.wallNsTrial)
	l.rows = append(l.rows, ledgerRow{layer: "residual", nsTrial: l.wallNsTrial - sum, counts: "worker time outside every span"})
	rep["ledger.residual_pct"] = l.residualPct
	return l
}

func countOf(s *spanStats) int {
	if s == nil {
		return 0
	}
	return s.count
}

func totalOf(s *spanStats) int64 {
	if s == nil {
		return 0
	}
	return s.total
}
