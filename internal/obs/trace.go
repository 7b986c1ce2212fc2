package obs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cross-tier sample tracing: every daemon stamps a hop record — who it
// is, its tier role, and the scheduler-clock times at which the sample
// passed each pipeline stage — onto the samples it serves upward. The
// chain of hop records rides the wire inside the trace block that
// prefixes every update response (see internal/transport), so a top-tier aggregator can
// attribute a sample's end-to-end age hop by hop instead of only in
// total. This file holds the hop record model, its wire codec, and the
// span recorder that turns decoded hop stamps into per-(daemon, role,
// stage) age histograms.

// HopRole is a daemon's position in the tiered topology, as carried in
// its hop records.
type HopRole uint8

// Hop roles, matching Daemon.TierRole.
const (
	RoleLeaf HopRole = iota // samples locally, serves upward
	RoleMid                 // pulls producers and serves a tier above
	RoleTop                 // pulls producers, serves nothing upward
	nRoles
)

// String returns the role's topology name.
func (r HopRole) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleMid:
		return "mid"
	case RoleTop:
		return "top"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// ParseRole converts a topology name back to a HopRole.
func ParseRole(s string) (HopRole, error) {
	for r := HopRole(0); r < nRoles; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown hop role %q", s)
}

// Stage is one pipeline stage within a hop.
type Stage uint8

// Pipeline stages a hop can stamp, in sample-flow order. They mirror
// the Pipeline hop names: pull-complete, reduce publish, window insert,
// store enqueue.
const (
	StagePull Stage = iota
	StageReduce
	StageWindow
	StageStore
	nStages
)

// String returns the stage's pipeline-hop name.
func (s Stage) String() string {
	switch s {
	case StagePull:
		return HopPull
	case StageReduce:
		return HopReduce
	case StageWindow:
		return HopWindow
	case StageStore:
		return HopStore
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// HopRecord is one daemon's stamp set on a sample's path: which daemon,
// its tier role, and the scheduler-clock time (unix nanoseconds, 0 =
// stage not reached) at which the sample cleared each pipeline stage.
type HopRecord struct {
	Daemon string
	Role   HopRole
	// Pull is the sampler's transaction-end time on a leaf hop, and the
	// pull-complete time on aggregator hops.
	Pull   int64
	Reduce int64
	Window int64
	Store  int64
}

// Stamp records one stage's time on the hop.
func (h *HopRecord) Stamp(s Stage, t int64) {
	switch s {
	case StagePull:
		h.Pull = t
	case StageReduce:
		h.Reduce = t
	case StageWindow:
		h.Window = t
	case StageStore:
		h.Store = t
	}
}

// Stages iterates the hop's stamped stages in flow order.
func (h *HopRecord) Stages(f func(Stage, int64)) {
	if h.Pull != 0 {
		f(StagePull, h.Pull)
	}
	if h.Reduce != 0 {
		f(StageReduce, h.Reduce)
	}
	if h.Window != 0 {
		f(StageWindow, h.Window)
	}
	if h.Store != 0 {
		f(StageStore, h.Store)
	}
}

// MaxTraceHops bounds the hop chain carried on the wire: deep enough
// for any sane topology (the paper's deployments are 2–3 tiers), small
// enough that a hostile peer cannot balloon decode work. Chains deeper
// than the cap keep their most recent hops.
const MaxTraceHops = 16

// Trace block wire layout (all little-endian), carried in front of every
// update response payload:
//
//	u32 magic "TRC1"
//	u8  hop count (<= MaxTraceHops)
//	per hop:
//	  u8 name length | name bytes
//	  u8 role
//	  i64 pull | i64 reduce | i64 window | i64 store (unix ns, 0=unset)
const traceMagic = 'T' | 'R'<<8 | 'C'<<16 | '1'<<24

// Trace codec errors.
var (
	ErrTraceMagic     = errors.New("obs: trace block has bad magic")
	ErrTraceTruncated = errors.New("obs: trace block truncated")
	ErrTraceHops      = errors.New("obs: trace block hop count exceeds cap")
	ErrTraceRole      = errors.New("obs: trace block has unknown hop role")
	ErrTraceTrailing  = errors.New("obs: trace block has trailing bytes")
)

// appendU32 and appendI64 write little-endian integers.
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendI64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func readI64(b []byte) int64 {
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

// AppendHops encodes a hop chain onto dst. Chains longer than
// MaxTraceHops keep the last MaxTraceHops entries (the local hop — the
// chain's tail — always survives); daemon names longer than 255 bytes
// truncate.
func AppendHops(dst []byte, hops []HopRecord) []byte {
	if len(hops) > MaxTraceHops {
		hops = hops[len(hops)-MaxTraceHops:]
	}
	dst = appendU32(dst, traceMagic)
	dst = append(dst, byte(len(hops)))
	for i := range hops {
		h := &hops[i]
		name := h.Daemon
		if len(name) > 255 {
			name = name[:255]
		}
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
		dst = append(dst, byte(h.Role))
		dst = appendI64(dst, h.Pull)
		dst = appendI64(dst, h.Reduce)
		dst = appendI64(dst, h.Window)
		dst = appendI64(dst, h.Store)
	}
	return dst
}

// HopDecoder decodes trace blocks with daemon-name interning, so the
// per-pass decode of a steady topology allocates nothing: every name in
// the block has been seen before and resolves through the intern map
// without a string conversion.
type HopDecoder struct {
	names map[string]string
}

// intern resolves a name's canonical string, allocating only on first
// sight.
func (d *HopDecoder) intern(b []byte) string {
	if d.names == nil {
		d.names = make(map[string]string)
	}
	if s, ok := d.names[string(b)]; ok { // compiler elides the conversion
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// Decode parses a trace block into dst (reusing its capacity),
// validating every bound against hostile input. The whole block must be
// consumed exactly.
func (d *HopDecoder) Decode(b []byte, dst []HopRecord) ([]HopRecord, error) {
	if len(b) < 5 {
		return dst, ErrTraceTruncated
	}
	magic := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if magic != traceMagic {
		return dst, ErrTraceMagic
	}
	n := int(b[4])
	if n > MaxTraceHops {
		return dst, ErrTraceHops
	}
	pos := 5
	for i := 0; i < n; i++ {
		if pos >= len(b) {
			return dst, ErrTraceTruncated
		}
		nameLen := int(b[pos])
		pos++
		if pos+nameLen+1+32 > len(b) {
			return dst, ErrTraceTruncated
		}
		name := d.intern(b[pos : pos+nameLen])
		pos += nameLen
		role := HopRole(b[pos])
		pos++
		if role >= nRoles {
			return dst, ErrTraceRole
		}
		dst = append(dst, HopRecord{
			Daemon: name,
			Role:   role,
			Pull:   readI64(b[pos:]),
			Reduce: readI64(b[pos+8:]),
			Window: readI64(b[pos+16:]),
			Store:  readI64(b[pos+24:]),
		})
		pos += 32
	}
	if pos != len(b) {
		return dst, ErrTraceTrailing
	}
	return dst, nil
}

// SpanKey identifies one per-hop-per-stage histogram.
type SpanKey struct {
	Daemon string
	Role   HopRole
	Stage  Stage
}

// SpanRecorder aggregates sample ages per (daemon, role, stage) across
// every hop chain the owning daemon decodes. Record is the hot path —
// one lock-free map load plus a Hist increment, zero allocations once a
// key has been seen — because the top tier of a 10k-sampler topology
// records several spans per pulled set per pass.
type SpanRecorder struct {
	mu sync.Mutex
	m  atomic.Pointer[map[SpanKey]*Hist]
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	r := &SpanRecorder{}
	m := make(map[SpanKey]*Hist)
	r.m.Store(&m)
	return r
}

// Record adds one observation: the sample's age when daemon's stage
// stamped it.
//
//ldms:hotpath
func (r *SpanRecorder) Record(daemon string, role HopRole, stage Stage, age time.Duration) {
	m := *r.m.Load()
	if h, ok := m[SpanKey{daemon, role, stage}]; ok {
		h.Record(age)
		return
	}
	r.grow(SpanKey{daemon, role, stage}).Record(age)
}

// grow inserts a histogram for a new key via copy-on-write, so Record
// stays lock-free.
func (r *SpanRecorder) grow(k SpanKey) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.m.Load()
	if h, ok := old[k]; ok {
		return h
	}
	next := make(map[SpanKey]*Hist, len(old)+1)
	for kk, vv := range old {
		next[kk] = vv
	}
	h := &Hist{}
	next[k] = h
	r.m.Store(&next)
	return h
}

// SpanLatency is one (daemon, role, stage) quantile summary.
type SpanLatency struct {
	Daemon string
	Role   HopRole
	Stage  Stage
	Count  uint64
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Snapshot summarizes every span histogram, sorted by (daemon, role,
// stage) so renderings are deterministic.
func (r *SpanRecorder) Snapshot() []SpanLatency {
	m := *r.m.Load()
	out := make([]SpanLatency, 0, len(m))
	for k, h := range m {
		s := h.Snapshot()
		out = append(out, SpanLatency{
			Daemon: k.Daemon,
			Role:   k.Role,
			Stage:  k.Stage,
			Count:  s.Count,
			P50:    s.Quantile(0.50),
			P95:    s.Quantile(0.95),
			P99:    s.Quantile(0.99),
			Max:    s.Max(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Daemon != out[j].Daemon {
			return out[i].Daemon < out[j].Daemon
		}
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// ChainSnapshot is one set's current hop chain, origin hop first, as
// served on /api/v1/trace and the control interface.
type ChainSnapshot struct {
	Set  string
	Hops []HopRecord
}
