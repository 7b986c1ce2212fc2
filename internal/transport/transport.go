// Package transport implements the LDMS pull-model data transports.
//
// A connection links an aggregator to a collection target (a sampler or
// another aggregator). Three operations exist, mirroring Fig. 2 of the
// paper:
//
//	dir     list the instance names of the target's metric sets
//	lookup  fetch a set's metadata chunk once, establishing a handle
//	update  fetch only the set's data chunk (~10% of the set size)
//
// Implementations:
//
//	sock  TCP with a small binary framing protocol (the paper's sock
//	      transport plugin)
//	mem   in-process, zero-copy, deterministic; used for virtual-time
//	      experiments and tests
//	rdma / ugni  simulated RDMA: layered on sock or mem but with one-sided
//	      update semantics — data fetches bypass the target's request
//	      handler path and consume no host CPU there, mirroring
//	      "If the transport is RDMA over IB or UGNI, the data fetching
//	      will not consume CPU cycles" (paper Fig. 2)
package transport

import (
	"context"
	"errors"
	"sync/atomic"

	"goldms/internal/metric"
)

// ErrNoSuchSet is reported by lookup for an unknown instance name.
var ErrNoSuchSet = errors.New("transport: no such set")

// ErrClosed is reported on operations over a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is the client (pulling) side of a transport connection.
type Conn interface {
	// Dir lists the remote registry's set instance names.
	Dir(ctx context.Context) ([]string, error)
	// Lookup fetches the named set's metadata and returns a handle for
	// subsequent updates.
	Lookup(ctx context.Context, name string) (RemoteSet, error)
	// Close releases the connection.
	Close() error
}

// RemoteSet is a handle to one metric set on the remote peer, the product
// of a lookup.
type RemoteSet interface {
	// Meta returns the metadata fetched at lookup time.
	Meta() *metric.Meta
	// Update fetches the current data chunk into dst, which must be at
	// least Meta().DataSize bytes. It returns the number of bytes fetched.
	Update(ctx context.Context, dst []byte) (int, error)
}

// DirGenConn is an optional Conn capability: poll the remote registry's
// directory generation (bumped on every set add/remove). An aggregator in a
// tiered topology checks it once per pull pass and only re-runs the full
// dir/lookup handshake when membership actually changed, so joins and leaves
// propagate one pull interval per hop with O(1) steady-state cost.
type DirGenConn interface {
	DirGen(ctx context.Context) (uint64, error)
}

// DirGenOf polls conn's directory generation when the transport supports it.
func DirGenOf(ctx context.Context, conn Conn) (uint64, bool, error) {
	dg, ok := conn.(DirGenConn)
	if !ok {
		return 0, false, nil
	}
	gen, err := dg.DirGen(ctx)
	if err != nil {
		return 0, true, err
	}
	return gen, true, nil
}

// UpdateOp is one data pull in a pipelined batch: Set and Dst are filled by
// the caller; N and Err carry the per-op result, exactly as RemoteSet.Update
// would return them.
//
// A caller whose Dst already holds the data chunk from a previous completed
// pull may set AckDGN to that chunk's DGN and HaveAck true; the transport
// then asks the server for only the metrics changed since, patches them
// into Dst, and reports WasDelta. The server may answer with a full chunk
// instead, and transports without a batch path ignore the ack — Dst ends
// up holding the current chunk either way.
type UpdateOp struct {
	Set      RemoteSet
	Dst      []byte
	AckDGN   uint64 // DGN of the chunk Dst currently holds
	HaveAck  bool   // Dst holds a complete prior chunk at AckDGN
	N        int
	Err      error
	WasDelta bool // this pull moved a delta, not a full chunk
	// Trace receives the server's hop-chain trace block for this pull: the
	// transport appends the block's bytes to Trace (reusing its capacity —
	// pass a recycled slice truncated to length 0) before the op completes.
	// Left at length 0 when the server has no chain for the set, on the
	// non-batched path, and on errors. The bytes decode with
	// obs.HopDecoder.
	Trace []byte
}

// BatchUpdater is an optional Conn capability: issue every op's update
// request before awaiting any response, amortizing the round-trip latency
// and the per-frame write flush over the whole batch. An error on one op
// (e.g. a stale handle answered with an error frame) is recorded on that op
// alone; only a connection-level failure fails the remainder.
type BatchUpdater interface {
	UpdateBatch(ctx context.Context, ops []UpdateOp)
}

// UpdateAll fetches every op's data chunk over conn, pipelining through
// UpdateBatch when the connection supports it and falling back to one
// blocking round trip per op otherwise.
func UpdateAll(ctx context.Context, conn Conn, ops []UpdateOp) {
	if b, ok := conn.(BatchUpdater); ok {
		b.UpdateBatch(ctx, ops)
		return
	}
	sequentialUpdates(ctx, ops)
}

// sequentialUpdates is the non-pipelined fallback: one round trip per op,
// always a full chunk.
func sequentialUpdates(ctx context.Context, ops []UpdateOp) {
	for i := range ops {
		ops[i].N, ops[i].Err = ops[i].Set.Update(ctx, ops[i].Dst)
		ops[i].WasDelta = false
		ops[i].Trace = ops[i].Trace[:0]
	}
}

// failOps records err on every op that has no result yet.
func failOps(ops []UpdateOp, err error) {
	for i := range ops {
		if ops[i].Err == nil && ops[i].N == 0 {
			ops[i].Err = err
		}
	}
}

// ConnStats is a snapshot of one connection's transfer counters, the
// transport-level half of the daemon's observability surface (prdcr_status
// and the gateway's /metrics).
type ConnStats struct {
	BytesIn    int64 // payload + framing bytes received (wire bytes: post-compression)
	BytesOut   int64 // payload + framing bytes sent
	MsgsIn     int64 // messages (frames / direct-call replies) received
	MsgsOut    int64 // messages sent
	Batches    int64 // pipelined update batches issued
	BatchedOps int64 // update ops carried by those batches
	// Update-efficiency counters, maintained on the pulling side: every
	// completed data pull counts as an update; the ones the peer answered
	// with a metric delta rather than a full chunk also count as delta
	// updates. BytesIn / Updates is the connection's bytes-per-sample.
	Updates      int64
	DeltaUpdates int64
}

// Add accumulates o into s (for totals across reconnect epochs).
func (s *ConnStats) Add(o ConnStats) {
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.MsgsIn += o.MsgsIn
	s.MsgsOut += o.MsgsOut
	s.Batches += o.Batches
	s.BatchedOps += o.BatchedOps
	s.Updates += o.Updates
	s.DeltaUpdates += o.DeltaUpdates
}

// BytesPerSample is the average wire cost of one completed data pull over
// this connection's lifetime, the headline efficiency figure of the delta
// update path. Zero before any pull completes.
func (s ConnStats) BytesPerSample() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.Updates)
}

// StatConn is implemented by connections that count their traffic.
type StatConn interface {
	ConnStats() ConnStats
}

// StatsOf returns conn's transfer counters, if it keeps any.
func StatsOf(conn Conn) (ConnStats, bool) {
	if sc, ok := conn.(StatConn); ok {
		return sc.ConnStats(), true
	}
	return ConnStats{}, false
}

// connStats is the embeddable atomic counter block behind ConnStats.
type connStats struct {
	bytesIn, bytesOut, msgsIn, msgsOut, batches, batchedOps atomic.Int64
	updates, deltaUpdates                                   atomic.Int64
}

// ConnStats snapshots the counters.
func (s *connStats) ConnStats() ConnStats {
	return ConnStats{
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
		MsgsIn:       s.msgsIn.Load(),
		MsgsOut:      s.msgsOut.Load(),
		Batches:      s.batches.Load(),
		BatchedOps:   s.batchedOps.Load(),
		Updates:      s.updates.Load(),
		DeltaUpdates: s.deltaUpdates.Load(),
	}
}

// countUpdate records one completed data pull and whether it was a delta.
func (s *connStats) countUpdate(wasDelta bool) {
	s.updates.Add(1)
	if wasDelta {
		s.deltaUpdates.Add(1)
	}
}

// countOut records one sent message of n payload+framing bytes.
func (s *connStats) countOut(n int) {
	s.msgsOut.Add(1)
	s.bytesOut.Add(int64(n))
}

// countIn records one received message of n payload+framing bytes.
func (s *connStats) countIn(n int) {
	s.msgsIn.Add(1)
	s.bytesIn.Add(int64(n))
}

// Listener accepts connections for a Server until closed.
type Listener interface {
	// Addr returns the bound address (for tests and logs).
	Addr() string
	// Close stops accepting and tears down the listener.
	Close() error
}

// Factory creates listeners and outbound connections for one transport
// type. ldmsd resolves the user's transport name ("sock", "rdma", "ugni",
// "mem") to a Factory.
type Factory interface {
	// Name returns the transport type name.
	Name() string
	// Listen serves srv on addr.
	Listen(addr string, srv *Server) (Listener, error)
	// Dial connects to a peer serving on addr.
	Dial(addr string) (Conn, error)
	// MaxFanIn is the empirically supported collection fan-in for this
	// transport (paper §IV-A: ~9,000:1 sock and RDMA over IB, >15,000:1
	// RDMA over Gemini).
	MaxFanIn() int
}

// PeerFactory is implemented by transports that support connection
// initiation from either side (paper §IV-B: "LDMS incorporates mechanisms
// to enable initiation of a connection from either side in order to
// support asymmetric network access"). A sampler behind a connection
// barrier uses DialNamed to reach its aggregator and serve its sets over
// the resulting connection; the aggregator uses ListenPeer and pulls from
// each announced peer as if it had dialed out.
type PeerFactory interface {
	Factory
	// ListenPeer serves srv and reports each dialing peer that announces
	// itself.
	ListenPeer(addr string, srv *Server, onPeer func(name string, conn Conn)) (Listener, error)
	// DialNamed connects, announces name, and serves srv (which may be
	// nil) over the same connection.
	DialNamed(addr, name string, srv *Server) (Conn, error)
}
