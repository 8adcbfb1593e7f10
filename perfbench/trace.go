package main

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/website"
)

// span is one timed call at a layer boundary. Spans live on the track
// (goroutine role) that made the call; parent indexes the enclosing
// span on the same track, or is -1.
type span struct {
	name       string
	trial      int // trial index, or -1 for campaign-level calls
	parent     int
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// track is one timeline: a worker, the exporter stage, or the
// campaign goroutine.
type track struct {
	name  string
	spans []span
}

// open starts a span and returns its index for close.
func (t *track) open(name string, trial, parent int, at int64) int {
	t.spans = append(t.spans, span{name: name, trial: trial, parent: parent, start: at})
	return len(t.spans) - 1
}

func (t *track) close(i int, at int64) { t.spans[i].end = at }

// tracer records the spans of traced rounds in memory, and the obs
// snapshots of their registries; both are read after the run.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex // guards tracks (workers register concurrently)
	tracks []*track

	exporters *track   // exporter calls, serialized by the pipeline
	campaign  *track   // snapshot calls on the campaign goroutine
	workers   []*track // one per worker, reused by every traced leg

	// snaps are the obs registry snapshots of every traced leg.
	snaps []*obs.Snapshot

	// profiles are the CPU profiles of the traced rounds, written to
	// profileDir; profileFile is the one being written.
	profileDir  string
	profiles    []string
	profileFile *os.File
}

// newTracer returns a tracer that writes its CPU profiles to dir.
func newTracer(dir string) *tracer {
	t := &tracer{epoch: time.Now(), profileDir: dir}
	t.exporters = t.newTrack("exporters")
	t.campaign = t.newTrack("campaign")
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newTrack(name string) *track {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &track{name: name}
	t.tracks = append(t.tracks, tk)
	return tk
}

// tracedWorker mirrors the survey's worker state: a trial world plus
// the most recently built site, and the worker's track.
type tracedWorker struct {
	w    *experiment.World
	site *website.GeneratedSite
	tk   *track
}

// run executes one leg of a traced campaign through pipeline.Run with
// the benchmark's own trial function, which mirrors the survey worker
// (cache the site by index, else Corpus.Build, then
// World.RunSiteTrial) with a span around each call. The exporters are
// wrapped so that every Begin, Restore, Export, Checkpoint and Close
// call records a span.
func (t *tracer) run(s *experiment.Survey, reps int, reg *obs.Registry, cfg pipeline.Config, exporters []pipeline.Exporter[params, result]) (pipeline.Summary, error) {
	cfg.Batch = reps // as Survey.Run
	wrapped := make([]pipeline.Exporter[params, result], len(exporters))
	for i, e := range exporters {
		wrapped[i] = &tracedExporter{inner: e, t: t, exportName: "pipeline.export:" + e.Name()}
	}
	started := 0
	newState := func() *tracedWorker {
		t.mu.Lock()
		if started == len(t.workers) {
			tk := &track{name: "worker " + strconv.Itoa(started+1)}
			t.workers = append(t.workers, tk)
			t.tracks = append(t.tracks, tk)
		}
		tk := t.workers[started]
		started++
		t.mu.Unlock()
		w := experiment.NewWorld()
		if reg != nil {
			w.SetMetrics(reg.NewShard())
		}
		return &tracedWorker{w: w, tk: tk}
	}
	corpus := s.Corpus()
	trial := func(tw *tracedWorker, p params) result {
		i := p.Site*reps + p.Rep
		tk := tw.tk
		root := tk.open("runner.trial", i, -1, t.now())
		if tw.site == nil || tw.site.Spec.Index != p.Site {
			b := tk.open("website.build", i, root, t.now())
			tw.site = corpus.Build(p.Site)
			tk.close(b, t.now())
		}
		r := tk.open("experiment.run_site_trial", i, root, t.now())
		res := tw.w.RunSiteTrial(tw.site, p)
		end := t.now()
		tk.close(r, end)
		tk.close(root, end)
		return res
	}
	return pipeline.Run(cfg, s, newState, trial, wrapped...)
}

// snapshot takes the registry's snapshot at the end of a traced leg,
// as the obs exporter would, timing the call.
func (t *tracer) snapshot(reg *obs.Registry) {
	i := t.campaign.open("obs.snapshot", -1, -1, t.now())
	snap := reg.Snapshot()
	t.campaign.close(i, t.now())
	t.snaps = append(t.snaps, snap)
}

// tracedExporter records a span around every call into an exporter.
// The pipeline serializes exporter calls, so the shared track needs no
// lock.
type tracedExporter struct {
	inner      pipeline.Exporter[params, result]
	t          *tracer
	exportName string
}

func (e *tracedExporter) call(name string, trial int, f func() error) error {
	tk := e.t.exporters
	i := tk.open(name, trial, -1, e.t.now())
	err := f()
	tk.close(i, e.t.now())
	return err
}

func (e *tracedExporter) Name() string { return e.inner.Name() }

func (e *tracedExporter) Begin(m pipeline.Meta) error {
	return e.call("pipeline.begin", -1, func() error { return e.inner.Begin(m) })
}

func (e *tracedExporter) Export(i int, p params, r result) error {
	return e.call(e.exportName, i, func() error { return e.inner.Export(i, p, r) })
}

func (e *tracedExporter) Checkpoint() (json.RawMessage, error) {
	var state json.RawMessage
	err := e.call("pipeline.checkpoint", -1, func() (err error) {
		state, err = e.inner.Checkpoint()
		return err
	})
	return state, err
}

func (e *tracedExporter) Restore(state json.RawMessage) error {
	return e.call("pipeline.restore", -1, func() error { return e.inner.Restore(state) })
}

func (e *tracedExporter) Close(done bool) error {
	return e.call("pipeline.close", -1, func() error { return e.inner.Close(done) })
}

// selfTimes returns each span's self time: its duration minus the
// time its direct children on the same track cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// forEach calls f with every recorded span, its track index and its
// self time.
func (t *tracer) forEach(f func(tk int, s span, self int64)) {
	for ti, tk := range t.tracks {
		self := selfTimes(tk.spans)
		for i, s := range tk.spans {
			f(ti, s, self[i])
		}
	}
}

// traceEvent is one record of the Chrome/Perfetto trace_event format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTraceEvents writes every span as trace_event JSON, one track
// (thread) per worker plus the exporter and campaign tracks; it opens
// in ui.perfetto.dev.
func (t *tracer) writeTraceEvents(path string, prov provenance) error {
	events := make([]traceEvent, 0, 64)
	for ti, tk := range t.tracks {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: ti + 1,
			Args: map[string]any{"name": tk.name},
		})
	}
	t.forEach(func(ti int, s span, _ int64) {
		args := map[string]any{}
		if s.trial >= 0 {
			args["trial"] = s.trial
		}
		if s.parent >= 0 {
			args["parent"] = t.tracks[ti].spans[s.parent].name
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: ti + 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		})
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": prov}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
