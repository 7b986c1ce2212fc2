package transport

import (
	"context"
	"fmt"
	"sync"

	"goldms/internal/metric"
)

// Network is an in-process transport namespace: a map from address strings
// to serving registries. It gives experiments a deterministic, goroutine-
// free transport so virtual-time runs of thousands of simulated nodes stay
// exactly ordered.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewNetwork returns an empty in-process namespace.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*memListener)}
}

// MemFactory is the in-process transport. Kind may be "mem" for two-sided
// (sock-like) semantics, or "rdma"/"ugni" for simulated one-sided RDMA:
// updates bypass the target host's CPU accounting, and the Gemini variant
// advertises the higher fan-in from the paper.
type MemFactory struct {
	Net  *Network
	Kind string
	// Delay, when set, is invoked on connections dialed by this factory
	// before each client operation, with the dialed address and the
	// operation name: "dir", "lookup", "update", or — once per pipelined
	// batch, however many ops it carries — "update_batch". Tests use it to
	// model round-trip latency or to stall a chosen peer.
	Delay func(addr, op string)
	// NoDelta makes batched ops move full chunks regardless of
	// acknowledged DGNs: the full-chunk reference that
	// TestVirtualRunDeltaEquivalence compares the delta path against.
	NoDelta bool
}

// Name returns the transport kind.
func (f MemFactory) Name() string {
	if f.Kind == "" {
		return "mem"
	}
	return f.Kind
}

// MaxFanIn reports the paper's fan-in for the simulated interconnect:
// ~9,000:1 for sock-like and IB RDMA, >15,000:1 for Gemini (ugni).
func (f MemFactory) MaxFanIn() int {
	if f.Kind == "ugni" {
		return 15000
	}
	return 9000
}

// oneSided reports whether this factory simulates RDMA semantics.
func (f MemFactory) oneSided() bool { return f.Kind == "rdma" || f.Kind == "ugni" }

// Listen registers srv under addr in the namespace.
func (f MemFactory) Listen(addr string, srv *Server) (Listener, error) {
	if f.Net == nil {
		return nil, fmt.Errorf("transport: mem factory has no network")
	}
	if f.oneSided() {
		srv.OneSided = true
	}
	f.Net.mu.Lock()
	defer f.Net.mu.Unlock()
	if _, dup := f.Net.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: mem address %q already bound", addr)
	}
	l := &memListener{net: f.Net, addr: addr, srv: srv}
	f.Net.listeners[addr] = l
	return l, nil
}

// Dial connects to the server bound at addr.
func (f MemFactory) Dial(addr string) (Conn, error) {
	if f.Net == nil {
		return nil, fmt.Errorf("transport: mem factory has no network")
	}
	f.Net.mu.Lock()
	l := f.Net.listeners[addr]
	f.Net.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: mem dial %q: connection refused", addr)
	}
	return &memConn{l: l, addr: addr, delay: f.Delay, noDelta: f.NoDelta}, nil
}

// memListener is a bound in-process address.
type memListener struct {
	net  *Network
	addr string
	srv  *Server
	mu   sync.Mutex
	down bool
}

// Addr returns the bound name.
func (l *memListener) Addr() string { return l.addr }

// Close unbinds the address; existing connections start failing.
func (l *memListener) Close() error {
	l.mu.Lock()
	l.down = true
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	return nil
}

// alive reports whether the listener still serves.
func (l *memListener) alive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.down
}

// memConn is a direct-call client connection.
type memConn struct {
	l       *memListener
	addr    string
	delay   func(addr, op string)
	noDelta bool
	mu      sync.Mutex
	closed  bool

	// Transfer counters, mirroring what the sock transport counts on the
	// wire: one message per request and per reply, payload bytes in.
	connStats
}

// check validates the connection before an operation.
func (c *memConn) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed || !c.l.alive() {
		return ErrClosed
	}
	return nil
}

// pause runs the factory's Delay hook for one client operation.
func (c *memConn) pause(op string) {
	if c.delay != nil {
		c.delay(c.addr, op)
	}
}

// Dir implements Conn.
func (c *memConn) Dir(ctx context.Context) ([]string, error) {
	if err := c.check(ctx); err != nil {
		return nil, err
	}
	c.pause("dir")
	names := c.l.srv.serveDir()
	c.countOut(0)
	n := 0
	for _, s := range names {
		n += len(s)
	}
	c.countIn(n)
	return names, nil
}

// DirGen implements DirGenConn: a single atomic load on the serving
// registry, with the Delay hook observing the poll like any other client op.
func (c *memConn) DirGen(ctx context.Context) (uint64, error) {
	if err := c.check(ctx); err != nil {
		return 0, err
	}
	c.pause("dir_gen")
	gen := c.l.srv.serveDirGen()
	c.countOut(0)
	c.countIn(8)
	return gen, nil
}

// Lookup implements Conn.
func (c *memConn) Lookup(ctx context.Context, name string) (RemoteSet, error) {
	if err := c.check(ctx); err != nil {
		return nil, err
	}
	c.pause("lookup")
	c.countOut(len(name))
	set, metaBytes, err := c.l.srv.serveLookup(name)
	if err != nil {
		return nil, err
	}
	c.countIn(len(metaBytes))
	meta, err := metric.ParseMeta(metaBytes)
	if err != nil {
		return nil, err
	}
	return &memRemoteSet{conn: c, set: set, meta: meta}, nil
}

// Close implements Conn.
func (c *memConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// memRemoteSet is a lookup handle over the in-process transport.
type memRemoteSet struct {
	conn *memConn
	set  *metric.Set
	meta *metric.Meta
}

// Meta implements RemoteSet.
func (rs *memRemoteSet) Meta() *metric.Meta { return rs.meta }

// Update implements RemoteSet.
func (rs *memRemoteSet) Update(ctx context.Context, dst []byte) (int, error) {
	if err := rs.conn.check(ctx); err != nil {
		return 0, err
	}
	rs.conn.pause("update")
	n, err := rs.fetch(dst)
	rs.conn.countOut(4) // the sock transport's handle word
	rs.conn.countIn(n)
	if err == nil {
		rs.conn.countUpdate(false)
	}
	return n, err
}

// fetch copies the data chunk without re-checking or delaying; batch pulls
// pay the connection check and Delay once for the whole batch.
func (rs *memRemoteSet) fetch(dst []byte) (int, error) {
	if len(dst) < rs.set.DataSize() {
		return 0, fmt.Errorf("transport: update buffer too small: %d < %d", len(dst), rs.set.DataSize())
	}
	return rs.conn.l.srv.serveUpdate(rs.set, dst), nil
}

// fetchDelta runs the genuine delta encode+apply path in process: the
// serving side encodes the changes since the acknowledged DGN and the
// client patches dst — the same payload bytes a sock peer would move — so
// virtual-clock runs and determinism tests exercise the real codec. It
// returns the chunk size and the wire payload size, setting *wasDelta when
// the server answered with a delta rather than its full-chunk fallback.
func (rs *memRemoteSet) fetchDelta(dst []byte, since uint64, wasDelta *bool) (n, wire int, err error) {
	ds := rs.set.DataSize()
	if len(dst) < ds {
		return 0, 0, fmt.Errorf("transport: update buffer too small: %d < %d", len(dst), ds)
	}
	buf := getBuf(1 + ds + 64)
	out := rs.conn.l.srv.serveUpdateDelta(rs.set, since, buf)
	if out[0] == deltaKindDelta {
		if err := rs.meta.ApplyDelta(dst[:ds], out[1:]); err != nil {
			putBuf(buf)
			return 0, 0, err
		}
		*wasDelta = true
		n = ds
	} else {
		n = copy(dst, out[1:])
	}
	wire = len(out)
	putBuf(buf)
	return n, wire, nil
}

// UpdateBatch implements BatchUpdater: the in-process analogue of the sock
// transport's pipelining. One connection check and one Delay invocation
// ("update_batch") cover the whole batch, mirroring how pipelined requests
// share a single round trip on the wire.
func (c *memConn) UpdateBatch(ctx context.Context, ops []UpdateOp) {
	if len(ops) == 0 {
		return
	}
	for i := range ops {
		if rs, ok := ops[i].Set.(*memRemoteSet); !ok || rs.conn != c {
			sequentialUpdates(ctx, ops)
			return
		}
	}
	if err := c.check(ctx); err != nil {
		failOps(ops, err)
		return
	}
	c.pause("update_batch")
	if err := c.check(ctx); err != nil {
		failOps(ops, err)
		return
	}
	// Trace blocks move exactly as on the sock transport — the server's
	// Trace hook encodes the real TRC1 bytes, counted at their framed wire
	// cost — so virtual-clock runs exercise the genuine codec.
	traceOn := c.l.srv.Trace != nil
	var bytesIn, bytesOut, done, deltas int64
	for i := range ops {
		rs := ops[i].Set.(*memRemoteSet)
		ops[i].WasDelta = false
		ops[i].Trace = ops[i].Trace[:0]
		if traceOn {
			ops[i].Trace = c.l.srv.Trace(rs.set, ops[i].Trace)
			bytesIn += int64(traceLenPrefix + len(ops[i].Trace))
		}
		if ops[i].HaveAck && !c.noDelta {
			n, wire, err := rs.fetchDelta(ops[i].Dst, ops[i].AckDGN, &ops[i].WasDelta)
			ops[i].N, ops[i].Err = n, err
			bytesIn += int64(wire)
			bytesOut += 12 // handle word + acknowledged DGN
		} else {
			ops[i].N, ops[i].Err = rs.fetch(ops[i].Dst)
			bytesIn += int64(ops[i].N)
			bytesOut += 4 // the sock transport's handle word
		}
		if ops[i].Err == nil {
			done++
		}
		if ops[i].WasDelta {
			deltas++
		}
	}
	// One counter update per batch keeps the tap invisible to the update
	// fan-in hot path.
	c.msgsOut.Add(int64(len(ops)))
	c.bytesOut.Add(bytesOut)
	c.msgsIn.Add(int64(len(ops)))
	c.bytesIn.Add(bytesIn)
	c.batches.Add(1)
	c.batchedOps.Add(int64(len(ops)))
	c.updates.Add(done)
	c.deltaUpdates.Add(deltas)
}
