// Package obs is the always-available observability layer of the
// attack stack: a sharded, allocation-free metrics registry (counters
// plus fixed-bucket histograms) and a per-trial structured event ring
// (the "flight recorder").
//
// Determinism is the design constraint. Every sweep in this
// repository must produce byte-identical aggregates at any worker
// count, and the metrics layer inherits that contract: each runner
// worker owns one Shard, every simulated event increments plain
// integer cells in that shard, and Registry.Snapshot merges the
// shards by integer addition — which is commutative, so the merged
// totals do not depend on which worker ran which trial. obs reads no
// clock: wall-clock quantities (trials/s, elapsed time, ETA, per-trial
// latency) have one source, the runner (runner.Progress and
// runner.Options.OnTrialDone), and never enter a snapshot.
//
// Zero cost when disabled is the other constraint. Layers hold an
// obs.Sink by value; the zero Sink is valid and every method on it is
// a nil-check and a return, so the instrumented hot paths (link
// forwarding, ACK processing, frame emission) pay one predictable
// branch and no allocations when metrics are off. When metrics are
// on, counters and histogram observations are single array
// increments into preallocated shard memory — still allocation-free.
//
// Key types: Counter/HistID (the compiled metric schema), Shard (one
// worker's cells, split into per-configuration segment blocks), Sink
// (the per-trial handle layers increment through), Registry (shard
// factory + merge point), Snapshot (the merged, formattable result),
// and Recorder (the flight-recorder event ring, see recorder.go).
package obs

import (
	"math/bits"
	"sync"
	"time"
)

// Counter enumerates every counter metric in the stack. The value is
// an array index into a shard block; the name table below is the
// export schema. Counters are grouped by the layer that increments
// them.
type Counter uint8

const (
	// netem: link-level forwarding (each packet crosses two links per
	// direction, so LinkSend counts link traversals, not packets).
	CNetemLinkSend Counter = iota
	CNetemDropLoss
	CNetemDropQueue

	// tcpsim: transport events on either endpoint.
	CTCPSegSent
	CTCPRetransmit
	CTCPFastRetx
	CTCPTimeoutRetx
	CTCPDupAckRecvd
	CTCPBroken

	// h2sim client: browser-model behaviour.
	CH2Request
	CH2ReRequest
	CH2ResetRound
	CH2StreamReset
	CH2Refetch
	CH2Stall
	CH2ObjComplete
	CH2PushPromise

	// h2sim server: origin-model behaviour.
	CH2SrvWorker
	CH2SrvDupCopy
	CH2SrvRSTRecv
	CH2SrvPush

	// core: adversary phase transitions and component actions.
	CAtkPhase2
	CAtkPhase3
	CCtlHeld
	CCtlDropped
	CMonGet
	CMonResetBurst
	CPredIdentified
	CPredUnknown

	// experiment: per-trial outcomes.
	CTrial
	CTrialBroken
	CTrialComplete

	counterCount // number of counters; must stay last
)

// counterNames is the export schema: dotted layer.event names, one
// per Counter, in declaration order.
var counterNames = [counterCount]string{
	CNetemLinkSend:  "netem.link.send",
	CNetemDropLoss:  "netem.drop.loss",
	CNetemDropQueue: "netem.drop.queue",

	CTCPSegSent:     "tcp.seg.sent",
	CTCPRetransmit:  "tcp.retransmit",
	CTCPFastRetx:    "tcp.retx.fast",
	CTCPTimeoutRetx: "tcp.retx.timeout",
	CTCPDupAckRecvd: "tcp.dupack.recvd",
	CTCPBroken:      "tcp.broken",

	CH2Request:     "h2.client.request",
	CH2ReRequest:   "h2.client.rerequest",
	CH2ResetRound:  "h2.client.reset_round",
	CH2StreamReset: "h2.client.stream_reset",
	CH2Refetch:     "h2.client.refetch",
	CH2Stall:       "h2.client.stall",
	CH2ObjComplete: "h2.client.object_complete",
	CH2PushPromise: "h2.client.push_promise",

	CH2SrvWorker:  "h2.server.worker_spawned",
	CH2SrvDupCopy: "h2.server.dup_copy",
	CH2SrvRSTRecv: "h2.server.rst_received",
	CH2SrvPush:    "h2.server.push",

	CAtkPhase2:      "attack.phase2_entered",
	CAtkPhase3:      "attack.phase3_entered",
	CCtlHeld:        "attack.ctl.held",
	CCtlDropped:     "attack.ctl.dropped",
	CMonGet:         "attack.mon.get",
	CMonResetBurst:  "attack.mon.reset_burst",
	CPredIdentified: "attack.pred.identified",
	CPredUnknown:    "attack.pred.unknown",

	CTrial:         "trial.count",
	CTrialBroken:   "trial.broken",
	CTrialComplete: "trial.page_complete",
}

// String returns the counter's export name.
func (c Counter) String() string {
	if c < counterCount {
		return counterNames[c]
	}
	return "counter(?)"
}

// HistID enumerates every histogram metric. Histograms are
// fixed-bucket (power-of-two boundaries) so merging is integer
// addition per bucket.
type HistID uint8

const (
	// HNetemQueueWait is the per-packet serialization backlog wait in
	// nanoseconds (queue occupancy expressed as delay).
	HNetemQueueWait HistID = iota
	// HNetemJitter is the per-packet random jitter delay applied, ns.
	HNetemJitter
	// HTCPCwnd samples the congestion window in bytes after each
	// cumulative ACK advance.
	HTCPCwnd
	// HCtlHold is the adversary's per-packet hold (spacing jitter), ns.
	HCtlHold

	histCount // number of histograms; must stay last
)

var histNames = [histCount]string{
	HNetemQueueWait: "netem.queue_wait_ns",
	HNetemJitter:    "netem.jitter_ns",
	HTCPCwnd:        "tcp.cwnd_bytes",
	HCtlHold:        "attack.ctl.hold_ns",
}

// String returns the histogram's export name.
func (h HistID) String() string {
	if h < histCount {
		return histNames[h]
	}
	return "hist(?)"
}

// histBuckets is the fixed bucket count. Bucket i holds values whose
// bit length is i: bucket 0 is exactly zero, bucket i (i ≥ 1) covers
// [2^(i-1), 2^i). 48 buckets reach 2^47 ns ≈ 39 hours, far past any
// simulated duration or window size.
const histBuckets = 48

// Hist is one fixed-bucket histogram. The zero value is empty and
// ready to use. All cells are integers, so merging two histograms is
// element-wise addition and the merged result is independent of
// observation partitioning.
type Hist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
}

// Observe folds one sample in. Negative samples clamp to zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += uint64(v)
}

// Merge adds o's cells into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Mean returns the arithmetic mean of the observed samples (0 when
// empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]):
// the inclusive upper boundary of the bucket the quantile falls in.
// Bucket arithmetic only, so equal merged histograms give equal
// quantiles.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<histBuckets - 1
}

// block is the metric cells of one (shard, segment) pair.
type block struct {
	counters [counterCount]uint64
	hists    [histCount]Hist
}

// merge adds o's cells into b.
func (b *block) merge(o *block) {
	for i := range b.counters {
		b.counters[i] += o.counters[i]
	}
	for i := range b.hists {
		b.hists[i].Merge(&o.hists[i])
	}
}

// Shard is one worker's private metric cells, preallocated with one
// block per registry segment. A shard is written by one worker
// goroutine (the same ownership rule as experiment.World), which
// holds Lock for the whole of each trial it records.
type Shard struct {
	// mu orders the worker's writes with Registry.Snapshot, which
	// reads the shard under it. A snapshot taken while trials run (a
	// periodic checkpoint) therefore sees whole trials only. The
	// worker's lock is uncontended except during such a snapshot.
	mu   sync.Mutex
	segs []block
}

// Lock marks the start of one trial's recording; Unlock its end. A
// nil shard ignores both.
func (s *Shard) Lock() {
	if s != nil {
		s.mu.Lock()
	}
}

// Unlock ends the recording Lock started.
func (s *Shard) Unlock() {
	if s != nil {
		s.mu.Unlock()
	}
}

// Sink returns the increment handle for one segment of the shard,
// clamping out-of-range segments to 0. A nil shard returns the
// disabled zero Sink, so callers never branch on metrics being on.
func (s *Shard) Sink(segment int) Sink {
	if s == nil || len(s.segs) == 0 {
		return Sink{}
	}
	if segment < 0 || segment >= len(s.segs) {
		segment = 0
	}
	return Sink{blk: &s.segs[segment]}
}

// Sink is the handle instrumented layers hold by value: a pointer to
// one shard segment's cells plus an optional flight recorder. The
// zero Sink is disabled — every method nil-checks and returns — so
// layers call unconditionally.
type Sink struct {
	blk *block
	rec *Recorder
}

// WithRecorder returns a copy of the sink that also records flight
// events into r.
func (k Sink) WithRecorder(r *Recorder) Sink {
	k.rec = r
	return k
}

// Enabled reports whether metric increments reach a shard.
func (k Sink) Enabled() bool { return k.blk != nil }

// Inc adds 1 to a counter.
func (k Sink) Inc(c Counter) {
	if k.blk != nil {
		k.blk.counters[c]++
	}
}

// Add adds n to a counter.
func (k Sink) Add(c Counter, n uint64) {
	if k.blk != nil {
		k.blk.counters[c] += n
	}
}

// Observe folds one sample into a histogram.
func (k Sink) Observe(h HistID, v int64) {
	if k.blk != nil {
		k.blk.hists[h].Observe(v)
	}
}

// ObserveDuration folds a duration sample (in nanoseconds) into a
// histogram.
func (k Sink) ObserveDuration(h HistID, d time.Duration) {
	if k.blk != nil {
		k.blk.hists[h].Observe(int64(d))
	}
}

// Event appends one typed event to the attached flight recorder, if
// any. at is the simulation timestamp.
func (k Sink) Event(at time.Duration, kind EventKind, a, b int64) {
	if k.rec != nil {
		k.rec.Record(at, kind, a, b)
	}
}
