package experiment

import (
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/h2sim"
	"repro/internal/obs"
	"repro/internal/website"
)

// World is a reusable trial arena: one fully-constructed simulation
// stack (site model, session, adversary) plus the per-trial RNG,
// reset in place between trials instead of rebuilt. A world's RunTrial
// returns byte-identical results to the package-level RunTrial at the
// same parameters — reuse is a pure performance optimization, which
// the state-leak regression tests pin down.
//
// A World is not safe for concurrent use; the runner keeps one per
// worker goroutine (see runner.RunWith).
type World struct {
	rng *rand.Rand
	sb  website.SurveyBuilder

	sess *h2sim.Session
	atk  *core.Attack

	// an scores ground-truth traces with reused indexing scratch (the
	// analysis-side arena mirror of the session stack).
	an analysis.Analyzer

	// pushPaths caches the PushEmblems promise list; the emblem paths
	// are fixed by the site model, so it is computed once.
	pushPaths []string
	pushMap   map[string][]string

	// shard, when set, receives every trial's metric increments
	// (segment selected by TrialParams.ObsSegment); rec, when set,
	// flight-records each trial (reset at trial start, so after
	// RunTrial it holds the last trial's events).
	shard *obs.Shard
	rec   *obs.Recorder
}

// NewWorld builds an empty world. The expensive components (session
// stack, adversary) are constructed lazily on the first trial and
// reused afterwards.
func NewWorld() *World {
	return &World{rng: rand.New(rand.NewSource(1))}
}

// SetMetrics points the world's trials at one worker shard. Pass nil
// to disable (the default): without a shard the whole stack runs with
// zero Sinks and pays only the disabled-path branch.
func (w *World) SetMetrics(shard *obs.Shard) { w.shard = shard }

// SetRecorder attaches a flight recorder: each subsequent trial resets
// it and records its typed events, so after RunTrial it holds that
// trial's (most recent) events. Pass nil to detach.
func (w *World) SetRecorder(rec *obs.Recorder) { w.rec = rec }

// RunTrial executes one trial in this world. Equivalent to the
// package-level RunTrial(p), amortizing construction across calls.
func (w *World) RunTrial(p TrialParams) TrialResult {
	// The shard is held for the whole trial, so a registry snapshot
	// taken meanwhile (a periodic checkpoint) never reads it half
	// written.
	w.shard.Lock()
	defer w.shard.Unlock()
	// Re-seeding replays the exact stream a fresh
	// rand.New(rand.NewSource(p.Seed)) would produce, so the survey
	// outcome and ambient draws match the fresh-world path.
	w.rng.Seed(p.Seed)
	rng := w.rng
	order := website.RandomPermutation(rng)

	path, htmlGap := ambient(rng)
	if p.FixedAmbient {
		path, htmlGap = h2sim.DefaultPath(), 250*time.Millisecond
	}
	if p.UniformDelay > 0 {
		path.ClientSide.PropDelay += p.UniformDelay / 2
		path.ServerSide.PropDelay += p.UniformDelay / 2
	}
	site := w.sb.Build(order, website.SurveyOptions{
		HTMLGap:             htmlGap,
		CanonicalImageOrder: p.CanonicalOrder,
		PadBucket:           p.PadBucket,
	})

	serverCfg := p.Server
	if p.PushEmblems {
		serverCfg.Push = w.pushConfig(site, serverCfg.Push)
	}
	sink := w.shard.Sink(p.ObsSegment)
	if w.rec != nil {
		w.rec.Reset()
		sink = sink.WithRecorder(w.rec)
	}
	sessCfg := h2sim.SessionConfig{
		Seed:      p.Seed,
		Path:      path,
		TCP:       p.TCP,
		Server:    serverCfg,
		Client:    p.Client,
		TimeLimit: p.TimeLimit,
		Obs:       sink,
	}
	if w.sess == nil {
		w.sess = h2sim.NewSession(site, sessCfg)
		w.atk = core.NewAttack(w.sess)
	} else {
		w.sess.Reset(site, sessCfg)
	}
	sess, atk := w.sess, w.atk
	atk.Obs = sink

	switch p.Mode {
	case ModeJitter:
		atk.Arm(core.AttackConfig{Phase1Spacing: p.Spacing})
	case ModeJitterThrottle:
		atk.Arm(core.AttackConfig{Phase1Spacing: p.Spacing})
		atk.Controller.SetBandwidth(p.Bandwidth)
	case ModeFullAttack:
		cfg := p.Attack
		if cfg == (core.AttackConfig{}) {
			cfg = core.PaperAttack()
		}
		atk.Arm(cfg)
	default:
		atk.ArmPassive()
	}

	sess.Run()

	res := TrialResult{
		Broken:          sess.Broken(),
		TruthOrder:      site.DisplayOrder,
		Retransmissions: sess.TotalRetransmissions(),
		ReRequests:      sess.Client.Stats.ReRequests,
		Resets:          sess.Client.Stats.Resets,
		PageComplete:    sess.Client.AllScheduledComplete(),
		LoadTime:        sess.Client.CompletedAt(45), // the trailing beacon
	}
	res.Requests = sess.Client.Requests
	// Copies escape the trial (the result is collected), so they are
	// freshly allocated; only the analyzer's indexing scratch is
	// reused.
	res.Copies = w.an.Copies(sess.GroundTruth)
	res.HTMLCleanAny, res.HTMLCleanOrig = analysis.CleanCopy(res.Copies, website.ResultHTMLID)
	res.HTMLDegree = analysis.OriginalDegree(res.Copies, website.ResultHTMLID)

	infs := atk.Infer()
	res.HTMLIdentified = atk.Predictor.IdentifiedHTML(infs)
	res.PredOrder = atk.Predictor.PredictEmblemOrder(infs)
	for i, party := range res.TruthOrder {
		clean, _ := analysis.CleanCopy(res.Copies, website.EmblemID(party))
		res.ImageClean[i] = clean
	}
	sink.Inc(obs.CTrial)
	if res.Broken {
		sink.Inc(obs.CTrialBroken)
	}
	if res.PageComplete {
		sink.Inc(obs.CTrialComplete)
	}
	return res
}

// pushConfig returns the server push map for the PushEmblems defence.
// When the caller supplied its own map it is extended in place (the
// fresh-world semantics); otherwise the world's cached map is reused —
// its contents are invariant because the emblem promise list is in
// canonical party order and the site's paths never vary.
func (w *World) pushConfig(site *website.Site, user map[string][]string) map[string][]string {
	html, _ := site.Object(website.ResultHTMLID)
	if w.pushPaths == nil {
		for party := 0; party < website.PartyCount; party++ {
			o, _ := site.Object(website.EmblemID(party))
			w.pushPaths = append(w.pushPaths, o.Path)
		}
	}
	if user != nil {
		user[html.Path] = w.pushPaths
		return user
	}
	if w.pushMap == nil {
		w.pushMap = map[string][]string{html.Path: w.pushPaths}
	}
	return w.pushMap
}
