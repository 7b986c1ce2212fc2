package ldmsd

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
)

// tracePlane is the daemon's half of cross-tier sample tracing: one hop
// chain per set it publishes. A mirrored set's chain is whatever the
// producer attached on the wire (its upstream hops) plus this daemon's own
// hop, stamped as the sample clears each pipeline stage; a reduced set
// inherits the chain of its newest contributing member; a locally sampled
// set starts a fresh chain of one hop. The transport serves the chain
// upward through the Server.Trace hook on every update response, and
// every decoded upstream stamp feeds the span recorder so this tier can
// attribute sample age per (daemon, role, stage) for the whole subtree
// below it.
//
// All times come off the daemon's scheduler clock, so virtual-clock runs
// produce byte-identical chains on replay. Peers serving without a trace
// hook send empty trace blocks and so contribute no upstream hops: the
// chain restarts at this daemon and everything else works unchanged.
type tracePlane struct {
	d     *Daemon
	spans *obs.SpanRecorder

	mu      sync.Mutex
	sets    map[string]*setTrace
	dec     obs.HopDecoder
	scratch []obs.HopRecord // appendWire's chain assembly buffer

	decodeErrs atomic.Int64
}

// setTrace is one published set's chain state.
type setTrace struct {
	upstream []obs.HopRecord // hops inherited from the producer's trace block
	local    obs.HopRecord   // this daemon's hop for the current sample
}

// newTracePlane returns an empty trace plane for d.
func newTracePlane(d *Daemon) *tracePlane {
	return &tracePlane{d: d, spans: obs.NewSpanRecorder(), sets: make(map[string]*setTrace)}
}

// role maps the daemon's current tier role onto the wire enum.
func (tp *tracePlane) role() obs.HopRole {
	r, err := obs.ParseRole(tp.d.TierRole())
	if err != nil {
		return obs.RoleLeaf
	}
	return r
}

// entryLocked returns (creating if needed) the named set's chain state.
// A set first seen here — a locally sampled set being served or stored —
// starts a bare single-hop chain. Caller holds tp.mu.
func (tp *tracePlane) entryLocked(name string, role obs.HopRole) *setTrace {
	e := tp.sets[name]
	if e == nil {
		e = &setTrace{local: obs.HopRecord{Daemon: tp.d.name, Role: role}}
		tp.sets[name] = e
	}
	return e
}

// pulled installs the chain for one freshly pulled mirror: the upstream
// hops decoded from the producer's trace block (empty when its server has
// no trace hook) plus this daemon's hop with its pull stamp. Every
// upstream stamp and the local pull feed the span recorder as sample age
// (stamp minus the sample's transaction-end time).
func (tp *tracePlane) pulled(name string, wire []byte, sampleTs, now time.Time) {
	role := tp.role()
	ts := sampleTs.UnixNano()
	tp.mu.Lock()
	e := tp.entryLocked(name, role)
	e.upstream = e.upstream[:0]
	if len(wire) > 0 {
		up, err := tp.dec.Decode(wire, e.upstream)
		if err != nil {
			// A malformed block from the peer: count it and fall
			// back to an untraced chain rather than poisoning the recorder.
			tp.decodeErrs.Add(1)
			up = up[:0]
		}
		e.upstream = up
	}
	e.local = obs.HopRecord{Daemon: tp.d.name, Role: role, Pull: now.UnixNano()}
	for i := range e.upstream {
		h := &e.upstream[i]
		h.Stages(func(st obs.Stage, stamp int64) {
			if age := stamp - ts; age >= 0 {
				tp.spans.Record(h.Daemon, h.Role, st, time.Duration(age))
			}
		})
	}
	tp.mu.Unlock()
	tp.spans.Record(tp.d.name, role, obs.StagePull, now.Sub(sampleTs))
}

// reduced installs the chain for one folded set published by in-flight
// reduction: the chain of the newest contributing member (upstream hops
// plus its pull stamp on this daemon's hop), with the reduce stage stamped
// at publish time.
func (tp *tracePlane) reduced(name, newest string, sampleTs, now time.Time) {
	role := tp.role()
	tp.mu.Lock()
	e := tp.entryLocked(name, role)
	e.upstream = e.upstream[:0]
	if src := tp.sets[newest]; src != nil && newest != "" {
		e.upstream = append(e.upstream, src.upstream...)
		e.local = src.local
	} else {
		e.local = obs.HopRecord{Daemon: tp.d.name, Role: role}
	}
	e.local.Reduce = now.UnixNano()
	tp.mu.Unlock()
	tp.spans.Record(tp.d.name, role, obs.StageReduce, now.Sub(sampleTs))
}

// stored stamps the window and store stages on a set's hop as storeSet
// fans the sample out. Locally sampled sets reaching a window or storage
// policy get their single-hop chain created here.
func (tp *tracePlane) stored(set *metric.Set, windowed, enqueued bool) {
	now := tp.d.sch.Now()
	ts := set.Timestamp()
	age := now.Sub(ts)
	role := tp.role()
	tp.mu.Lock()
	e := tp.entryLocked(set.Name(), role)
	if windowed {
		e.local.Window = now.UnixNano()
	}
	if enqueued {
		e.local.Store = now.UnixNano()
	}
	tp.mu.Unlock()
	if ts.IsZero() {
		return
	}
	if windowed {
		tp.spans.Record(tp.d.name, role, obs.StageWindow, age)
	}
	if enqueued {
		tp.spans.Record(tp.d.name, role, obs.StageStore, age)
	}
}

// appendWire is the transport Server.Trace hook: encode the set's current
// chain — upstream hops then this daemon's — onto dst. A set never pulled
// or stored (a freshly sampled local set) serves a bare identity hop, so
// the tier above still sees who it came from.
func (tp *tracePlane) appendWire(set *metric.Set, dst []byte) []byte {
	tp.mu.Lock()
	e := tp.entryLocked(set.Name(), tp.role())
	chain := tp.scratch[:0]
	chain = append(chain, e.upstream...)
	chain = append(chain, e.local)
	dst = obs.AppendHops(dst, chain)
	tp.scratch = chain
	tp.mu.Unlock()
	return dst
}

// drop releases a set's chain state when its mirror is released.
func (tp *tracePlane) drop(name string) {
	tp.mu.Lock()
	delete(tp.sets, name)
	tp.mu.Unlock()
}

// chains snapshots every set's current hop chain, sorted by set name.
func (tp *tracePlane) chains() []obs.ChainSnapshot {
	tp.mu.Lock()
	out := make([]obs.ChainSnapshot, 0, len(tp.sets))
	for name, e := range tp.sets {
		hops := make([]obs.HopRecord, 0, len(e.upstream)+1)
		hops = append(hops, e.upstream...)
		hops = append(hops, e.local)
		out = append(out, obs.ChainSnapshot{Set: name, Hops: hops})
	}
	tp.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Set < out[j].Set })
	return out
}

// Spans snapshots the daemon's per-(daemon, role, stage) sample-age
// summaries, covering this daemon and every traced hop below it.
func (d *Daemon) Spans() []obs.SpanLatency { return d.trace.spans.Snapshot() }

// Chains snapshots the hop chains of every set the daemon publishes.
func (d *Daemon) Chains() []obs.ChainSnapshot { return d.trace.chains() }

// TraceDecodeErrors counts malformed trace blocks received from peers
// (each fell back to an untraced chain).
func (d *Daemon) TraceDecodeErrors() int64 { return d.trace.decodeErrs.Load() }
