package core

import (
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/tlsrec"
	"repro/internal/trace"
	"repro/internal/website"
)

// Inference is one object transmission the predictor believes it
// observed: a delimiter-bounded run of full-size records.
type Inference struct {
	// EstSize is the estimated object size in plaintext bytes.
	EstSize int

	// Object is the size-table match, or nil when no object matched
	// within tolerance.
	Object *website.Object

	// Start and End are the observation times of the run.
	Start, End time.Duration

	// Records is the number of data records in the run.
	Records int
}

// Predictor is the adversary's size-inference arm. It knows the
// protocol constants (record overhead, frame header size, the
// server's full-record size) and carries the precompiled size→object
// table the paper's adversary uses.
type Predictor struct {
	// Site supplies the size table.
	Site *website.Site

	// Tolerance is the size-match window in bytes. Default 32.
	Tolerance int

	// FullCipher is the ciphertext length of a full data record
	// (ChunkPlain + frame header + record overhead). Runs end at any
	// data record shorter than this. Default 1400+9+24.
	FullCipher int

	// MinDataCipher separates control/HEADERS records from data
	// records. Default 120.
	MinDataCipher int

	// IdleGap discards an unterminated run when the stream goes quiet
	// longer than this (a transfer cut off without its delimiter, e.g.
	// by a stream reset, leaves a run that must not absorb the next
	// object). Default 600ms.
	IdleGap time.Duration

	// table is the compiled size→object index: entries sorted by size
	// with duplicate sizes collapsed to the lowest-index object, so
	// matchPrimed's two binary-search neighbors reproduce the linear
	// scan's first-wins tie-break exactly. tableSite keys the cache:
	// the survey builder only changes object sizes by rebuilding the
	// site (a new pointer), so pointer identity is a sound key.
	table     []sizeEntry
	tableSite *website.Site
}

// sizeEntry is one compiled size-table row.
type sizeEntry struct {
	size int
	idx  int // original Site.Objects index, the tie-break order
	obj  *website.Object
}

// NewPredictor builds a predictor with protocol defaults for site.
func NewPredictor(site *website.Site) *Predictor {
	return &Predictor{
		Site:          site,
		Tolerance:     32,
		FullCipher:    1400 + 9 + tlsrec.Overhead,
		MinDataCipher: 120,
		IdleGap:       600 * time.Millisecond,
	}
}

// Infer scans server→client application records for delimiter-bounded
// runs: consecutive full-size records terminated by a sub-full record
// (the paper's Figure 1 size-estimation procedure). Each run yields
// an estimated object size, matched against the size table.
//
// Two kinds of separator discard an unterminated run: a control-size
// record (every serialized response opens with a small HEADERS
// record, so a run still open when one appears was cut off without
// its delimiter) and an idle gap longer than IdleGap.
func (p *Predictor) Infer(records []trace.RecordObs) []Inference {
	return p.inferAppend(nil, records)
}

// inferAppend is Infer with a caller-supplied destination, letting a
// reused world amortize the inference slice across trials.
func (p *Predictor) inferAppend(out []Inference, records []trace.RecordObs) []Inference {
	var (
		runSize  int
		runRecs  int
		start    time.Duration
		lastSeen time.Duration
	)
	flush := func(end time.Duration) {
		if runRecs == 0 {
			return
		}
		inf := Inference{EstSize: runSize, Start: start, End: end, Records: runRecs}
		inf.Object = p.match(runSize)
		out = append(out, inf)
		runSize, runRecs = 0, 0
	}
	discard := func() { runSize, runRecs = 0, 0 }
	for _, r := range records {
		if r.Dir != trace.ServerToClient || !r.IsAppData() {
			continue
		}
		if runRecs > 0 && p.IdleGap > 0 && r.Time-lastSeen > p.IdleGap {
			discard()
		}
		lastSeen = r.Time
		if r.Length < p.MinDataCipher {
			// Control or HEADERS record: a new response is starting,
			// so an unterminated run was a cut-off transfer.
			discard()
			continue
		}
		if runRecs == 0 {
			start = r.Time
		}
		// Plain bytes carried: ciphertext minus record overhead minus
		// the DATA frame header.
		payload := r.Length - tlsrec.Overhead - 9
		if payload < 0 {
			payload = 0
		}
		runSize += payload
		runRecs++
		if r.Length < p.FullCipher {
			// Sub-full record: the delimiting packet that ends an
			// object's transmission.
			flush(r.Time)
		}
	}
	// An unterminated trailing run is not flushed: without its
	// delimiter the size is not observable.
	return out
}

// match finds the site object whose size is within tolerance, or nil.
// Among candidates the closest wins; on an exact diff tie the
// lowest-index object wins (the strict < keeps the first seen). This
// linear scan is the reference semantics — matchPrimed must agree on
// every input (TestPrimedMatchEquivalence).
func (p *Predictor) match(est int) *website.Object {
	var best *website.Object
	bestDiff := p.Tolerance + 1
	for i := range p.Site.Objects {
		o := &p.Site.Objects[i]
		diff := o.Size - est
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = o, diff
		}
	}
	return best
}

// Prime compiles the size table for the current Site if it is not
// already compiled. Matching after Prime is a two-neighbor binary
// search instead of a full scan; the batched and streaming inference
// paths call it once per site and amortize the sort across the K
// trials a worker runs there. Infer itself never requires priming —
// the reference path stays scan-based so equivalence tests retain an
// independent oracle.
func (p *Predictor) Prime() {
	if p.tableSite == p.Site && p.table != nil {
		return
	}
	p.table = p.table[:0]
	for i := range p.Site.Objects {
		o := &p.Site.Objects[i]
		p.table = append(p.table, sizeEntry{size: o.Size, idx: i, obj: o})
	}
	sort.Slice(p.table, func(i, j int) bool {
		a, b := p.table[i], p.table[j]
		if a.size != b.size {
			return a.size < b.size
		}
		return a.idx < b.idx
	})
	// Collapse duplicate sizes to the lowest original index — the
	// entry the linear scan's strict < would have kept.
	out := p.table[:0]
	for _, e := range p.table {
		if len(out) > 0 && out[len(out)-1].size == e.size {
			continue
		}
		out = append(out, e)
	}
	p.table = out
	p.tableSite = p.Site
}

// matchPrimed is match against the compiled table: only the floor and
// ceiling neighbors of est can hold the minimal diff, and on an exact
// tie between them the lower original index wins, replicating the
// scan order. Callers must Prime first.
func (p *Predictor) matchPrimed(est int) *website.Object {
	t := p.table
	// First entry with size >= est.
	lo, hi := 0, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].size < est {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var best *website.Object
	bestDiff := p.Tolerance + 1
	bestIdx := 0
	if lo < len(t) {
		if diff := t[lo].size - est; diff < bestDiff {
			best, bestDiff, bestIdx = t[lo].obj, diff, t[lo].idx
		}
	}
	if lo > 0 {
		e := t[lo-1]
		diff := est - e.size
		if diff <= p.Tolerance && (diff < bestDiff || (diff == bestDiff && e.idx < bestIdx)) {
			best = e.obj
		}
	}
	return best
}

// segmentConfig is the predictor's tuning expressed as the streaming
// segmentation engine's config, so StreamInference reads the same
// fields Infer does and the two cannot drift.
func (p *Predictor) segmentConfig() analysis.SegmentConfig {
	return analysis.SegmentConfig{
		FullCipher:        p.FullCipher,
		MinDataCipher:     p.MinDataCipher,
		PerRecordOverhead: tlsrec.Overhead + 9,
		IdleGap:           p.IdleGap,
	}
}

// PredictEmblemOrder extracts the predicted survey outcome: the
// distinct emblem images in order of first identified appearance.
// Positions beyond the identified emblems are -1.
func (p *Predictor) PredictEmblemOrder(infs []Inference) [website.PartyCount]int {
	var order [website.PartyCount]int
	for i := range order {
		order[i] = -1
	}
	var seen [website.PartyCount]bool
	pos := 0
	for _, inf := range infs {
		if inf.Object == nil || pos >= website.PartyCount {
			continue
		}
		party := inf.Object.ID - website.EmblemID(0)
		if party < 0 || party >= website.PartyCount || seen[party] {
			continue
		}
		seen[party] = true
		order[pos] = party
		pos++
	}
	return order
}

// IdentifiedHTML reports whether any inference matched the result
// HTML.
func (p *Predictor) IdentifiedHTML(infs []Inference) bool {
	for _, inf := range infs {
		if inf.Object != nil && inf.Object.ID == website.ResultHTMLID {
			return true
		}
	}
	return false
}
