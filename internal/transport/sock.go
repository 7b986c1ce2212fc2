package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"goldms/internal/metric"
)

// The sock transport's connections are symmetric peers: either end may
// serve its registry and either end may issue dir/lookup/update requests
// on the same TCP connection. This implements §IV-B's "mechanisms to
// enable initiation of a connection from either side in order to support
// asymmetric network access": a sampler behind a connection barrier dials
// the aggregator (DialNamed, announcing its name with a hello message),
// and the aggregator pulls over the incoming connection exactly as if it
// had dialed out.
//
// Connection scaling: each connection runs one read goroutine over the Go
// netpoller (which is itself a shared epoll/kqueue event loop multiplexing
// every blocked read onto a handful of threads), so the per-connection
// cost is one goroutine stack plus the two bufio buffers. Those buffers
// are the knob that matters at 10k connections, and they are deliberately
// small because aggregation traffic is dominated by sub-kB delta frames
// (BenchmarkSockConnScale compares 4 KiB against 32 KiB).

// sockBuf is the bufio size per direction. 4 KiB holds any delta frame and
// the typical data chunk while keeping 10k connections under ~80 MB of
// buffer memory.
const sockBuf = 4 << 10

// sockCfg sizes one connection's bufio buffers.
type sockCfg struct{ rbuf, wbuf int }

// defaultSockCfg is what every factory's connections use.
var defaultSockCfg = sockCfg{rbuf: sockBuf, wbuf: sockBuf}

// SockFactory implements the sock transport: the paper's TCP socket
// transport plugin. Every connection speaks the one wire protocol: delta
// updates, trace-prefixed update responses and deflate on frames it
// shrinks (docs/PROTOCOL.md).
type SockFactory struct{}

// Name returns "sock".
func (SockFactory) Name() string { return "sock" }

// MaxFanIn returns the paper's observed sock fan-in (~9,000:1).
func (SockFactory) MaxFanIn() int { return 9000 }

// Listen serves srv on a TCP address such as "127.0.0.1:0".
func (SockFactory) Listen(addr string, srv *Server) (Listener, error) {
	return listenTCP(addr, srv, nil, defaultSockCfg)
}

// ListenPeer serves srv and additionally reports each dialing peer that
// announces itself (via DialNamed) so the listener side can pull from it.
func (SockFactory) ListenPeer(addr string, srv *Server, onPeer func(name string, conn Conn)) (Listener, error) {
	return listenTCP(addr, srv, onPeer, defaultSockCfg)
}

// Dial connects to a TCP peer for pulling.
func (SockFactory) Dial(addr string) (Conn, error) {
	return dialTCP(addr, "", nil, defaultSockCfg)
}

// DialNamed connects to a TCP peer, announces name, and serves srv (which
// may be nil) over the same connection, so the remote side can pull from
// the dialer.
func (SockFactory) DialNamed(addr, name string, srv *Server) (Conn, error) {
	return dialTCP(addr, name, srv, defaultSockCfg)
}

// sockListener accepts TCP connections and runs a peer per connection.
type sockListener struct {
	ln     net.Listener
	srv    *Server
	cfg    sockCfg
	onPeer func(string, Conn)
	wg     sync.WaitGroup
	mu     sync.Mutex
	peers  map[*sockConn]struct{}
	closed bool
}

func listenTCP(addr string, srv *Server, onPeer func(string, Conn), cfg sockCfg) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &sockListener{ln: ln, srv: srv, cfg: cfg, onPeer: onPeer, peers: make(map[*sockConn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound TCP address.
func (l *sockListener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting and closes all serving connections.
func (l *sockListener) Close() error {
	l.mu.Lock()
	l.closed = true
	for p := range l.peers {
		p.c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *sockListener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		peer := newSockConn(c, l.srv, l.cfg)
		peer.onHello = l.onPeer
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.peers[peer] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			peer.readLoop()
			l.mu.Lock()
			delete(l.peers, peer)
			l.mu.Unlock()
		}()
	}
}

// sockConn is one symmetric TCP peer: a request client (Dir/Lookup/Update
// toward the remote) and, when srv is set, a server for the remote's
// requests, multiplexed on one connection by message type and request ID.
type sockConn struct {
	c   net.Conn
	w   *bufio.Writer
	wmu sync.Mutex
	// scratch holds small request payloads (update handles) built under
	// wmu, so pipelined batches write frames without per-frame allocation.
	scratch []byte
	// defl compresses outgoing frames; guarded by wmu.
	defl     frameDeflater
	rbufSize int

	// Client half. Each registered request ID reserves exactly one
	// buffered slot in its response channel, so readLoop and fail deliver
	// without blocking; a batch registers N contiguous IDs on one channel
	// of capacity N.
	mu     sync.Mutex
	nextID uint64
	wait   map[uint64]chan sockResp
	closed bool
	err    error

	// Server half. handles is allocated on first served lookup: the
	// aggregator side of a 10k-producer fan-in never serves lookups on
	// those connections and skips the map entirely.
	srv     *Server
	handles map[uint32]*metric.Set
	hmu     sync.Mutex
	nextH   uint32
	onHello func(string, Conn)

	// Transfer counters for prdcr_status and /metrics (both halves of the
	// symmetric connection share them). Byte counts are wire bytes: frames
	// that went out compressed count their compressed size.
	connStats
}

// sockResp is one delivered response: either a frame (typ, payload) from
// readLoop or a connection-level error from fail.
type sockResp struct {
	id      uint64
	typ     byte
	payload []byte
	err     error
}

// errUnresolved marks batch ops whose response has not arrived yet; it
// never escapes UpdateBatch.
var errUnresolved = errors.New("transport: update response pending")

var (
	errShortDeltaResp = errors.New("transport: short delta update response")
	errBadDeltaResp   = errors.New("transport: bad delta update response kind")
)

func newSockConn(c net.Conn, srv *Server, cfg sockCfg) *sockConn {
	return &sockConn{
		c:        c,
		w:        bufio.NewWriterSize(c, cfg.wbuf),
		rbufSize: cfg.rbuf,
		wait:     make(map[uint64]chan sockResp),
		srv:      srv,
	}
}

func dialTCP(addr, name string, srv *Server, cfg sockCfg) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	sc := newSockConn(c, srv, cfg)
	if name != "" {
		hello, err := appendString(nil, name)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := sc.send(msgHello, 0, hello); err != nil {
			c.Close()
			return nil, err
		}
	}
	go sc.readLoop()
	return sc, nil
}

// send writes one frame under the write lock and flushes, compressing the
// payload when compression wins.
func (sc *sockConn) send(typ byte, id uint64, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	out := payload
	if cp, ok := sc.defl.compress(payload); ok {
		typ |= compressFlag
		out = cp
	}
	if err := writeFrame(sc.w, typ, id, out); err != nil {
		return err
	}
	sc.countOut(frameHeader + len(out))
	return sc.w.Flush()
}

// readLoop dispatches incoming frames: requests to the server half,
// responses to waiting callers.
func (sc *sockConn) readLoop() {
	r := bufio.NewReaderSize(sc.c, sc.rbufSize)
	for {
		typ, id, payload, err := readFrame(r)
		if err != nil {
			sc.fail(err)
			return
		}
		// Wire bytes: counted at compressed size, before inflating.
		sc.countIn(frameHeader + len(payload))
		typ, payload, err = maybeInflate(typ, payload)
		if err != nil {
			sc.fail(err)
			return
		}
		switch typ {
		case msgDirReq, msgLookupReq, msgUpdateReq, msgHello, msgDirGenReq,
			msgDeltaUpdateReq:
			err := sc.serveRequest(typ, id, payload)
			putBuf(payload)
			if err != nil {
				sc.fail(err)
				return
			}
		default:
			sc.mu.Lock()
			ch := sc.wait[id]
			delete(sc.wait, id)
			sc.mu.Unlock()
			if ch != nil {
				ch <- sockResp{id: id, typ: typ, payload: payload}
			} else {
				// Cancelled or unknown request: nobody retains this.
				putBuf(payload)
			}
		}
	}
}

// handleFor resolves a set handle from a request payload's leading u32.
func (sc *sockConn) handleFor(payload []byte) (*metric.Set, bool) {
	sc.hmu.Lock()
	set, ok := sc.handles[wireLE.Uint32(payload)]
	sc.hmu.Unlock()
	return set, ok
}

// registerHandle assigns the next handle for a successfully looked-up set.
func (sc *sockConn) registerHandle(set *metric.Set) uint32 {
	sc.hmu.Lock()
	if sc.handles == nil {
		sc.handles = make(map[uint32]*metric.Set)
	}
	h := sc.nextH
	sc.nextH++
	sc.handles[h] = set
	sc.hmu.Unlock()
	return h
}

// serveRequest handles one request from the remote peer. It must not
// retain payload past return (readLoop recycles it).
func (sc *sockConn) serveRequest(typ byte, id uint64, payload []byte) error {
	replyErr := func(msg string) error {
		//ldms:errok appendString only fails on strings over maxWireString, which clipString just bounded
		p, _ := appendString(nil, clipString(msg))
		return sc.send(msgErrResp, id, p)
	}
	if typ == msgHello {
		name, _, err := readString(payload, 0)
		if err != nil {
			return replyErr(err.Error())
		}
		if sc.onHello != nil {
			go sc.onHello(name, sc)
		}
		return nil
	}
	if sc.srv == nil {
		return replyErr("transport: peer does not serve")
	}
	switch typ {
	case msgDirReq:
		b, err := encodeDirResp(sc.srv.serveDir())
		if err != nil {
			return replyErr(err.Error())
		}
		return sc.send(msgDirResp, id, b)
	case msgDirGenReq:
		return sc.send(msgDirGenResp, id, wireLE.AppendUint64(nil, sc.srv.serveDirGen()))
	case msgLookupReq:
		name, _, err := readString(payload, 0)
		if err != nil {
			return replyErr(err.Error())
		}
		set, meta, err := sc.srv.serveLookup(name)
		if err != nil {
			return replyErr(err.Error())
		}
		resp := wireLE.AppendUint32(nil, sc.registerHandle(set))
		resp = append(resp, meta...)
		return sc.send(msgLookupResp, id, resp)
	case msgUpdateReq, msgDeltaUpdateReq:
		delta := typ == msgDeltaUpdateReq
		if delta && len(payload) < 12 {
			return replyErr("transport: short delta update request")
		}
		if len(payload) < 4 {
			return replyErr("transport: short update request")
		}
		set, ok := sc.handleFor(payload)
		if !ok {
			return replyErr("transport: unknown set handle")
		}
		// u16 length | trace block | data chunk or delta payload. Slack
		// beyond DataSize covers the delta kind byte and header on sets
		// smaller than it, so serveUpdateDelta never reallocates.
		room := 1 + set.DataSize() + 64
		buf := getBuf(traceLenPrefix + traceSlack + room)
		b := sc.srv.appendTraceFor(buf[:0], set)
		off := len(b)
		b = growTo(b, off+room)
		resp, n := byte(msgUpdateResp), 0
		if delta {
			resp = msgDeltaUpdateResp
			n = len(sc.srv.serveUpdateDelta(set, wireLE.Uint64(payload[4:]), b[off:]))
		} else {
			n = sc.srv.serveUpdate(set, b[off:])
		}
		err := sc.send(resp, id, b[:off+n])
		putBuf(b)
		return err
	}
	return replyErr(fmt.Sprintf("transport: unknown message type %d", typ))
}

// fail resolves every outstanding waiter with the connection error. Each
// registered ID holds one reserved slot in its channel, so these sends
// never block; channels are never closed, which keeps shared batch
// channels safe.
func (sc *sockConn) fail(err error) {
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	err = sc.err
	waiters := sc.wait
	sc.wait = make(map[uint64]chan sockResp)
	sc.mu.Unlock()
	for id, ch := range waiters {
		ch <- sockResp{id: id, err: err}
	}
}

// register allocates n contiguous request IDs all routed to ch, which must
// have capacity >= n. It returns the first ID.
func (sc *sockConn) register(n int, ch chan sockResp) (uint64, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed || sc.err != nil {
		err := sc.err
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	first := sc.nextID
	sc.nextID += uint64(n)
	for i := 0; i < n; i++ {
		sc.wait[first+uint64(i)] = ch
	}
	return first, nil
}

// deregister drops the IDs [first, first+n) that are still waiting.
func (sc *sockConn) deregister(first uint64, n int) {
	sc.mu.Lock()
	for i := 0; i < n; i++ {
		delete(sc.wait, first+uint64(i))
	}
	sc.mu.Unlock()
}

// respError decodes an error response payload (recycling it) and maps
// well-known messages back to sentinel errors.
func respError(payload []byte) error {
	msg, _, err := readString(payload, 0)
	putBuf(payload)
	if err != nil {
		return err
	}
	if msg == ErrNoSuchSet.Error() {
		return ErrNoSuchSet
	}
	return fmt.Errorf("transport: remote error: %s", msg)
}

// roundTrip sends a request frame and waits for its response. A context
// already done sends nothing: once the request is out, a fast response and
// the cancellation race in the select below.
func (sc *sockConn) roundTrip(ctx context.Context, typ byte, payload []byte) (sockResp, error) {
	if err := ctx.Err(); err != nil {
		return sockResp{}, err
	}
	ch := make(chan sockResp, 1)
	id, err := sc.register(1, ch)
	if err != nil {
		return sockResp{}, err
	}
	if err := sc.send(typ, id, payload); err != nil {
		sc.deregister(id, 1)
		return sockResp{}, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return sockResp{}, r.err
		}
		if r.typ == msgErrResp {
			return sockResp{}, respError(r.payload)
		}
		return r, nil
	case <-ctx.Done():
		sc.deregister(id, 1)
		return sockResp{}, ctx.Err()
	}
}

// Dir implements Conn.
func (sc *sockConn) Dir(ctx context.Context) ([]string, error) {
	resp, err := sc.roundTrip(ctx, msgDirReq, nil)
	if err != nil {
		return nil, err
	}
	names, err := decodeDirResp(resp.payload)
	putBuf(resp.payload)
	return names, err
}

// DirGen implements DirGenConn: one small round trip for the remote
// registry's directory generation.
func (sc *sockConn) DirGen(ctx context.Context) (uint64, error) {
	resp, err := sc.roundTrip(ctx, msgDirGenReq, nil)
	if err != nil {
		return 0, err
	}
	if len(resp.payload) < 8 {
		putBuf(resp.payload)
		return 0, fmt.Errorf("transport: short dir-gen response")
	}
	gen := wireLE.Uint64(resp.payload)
	putBuf(resp.payload)
	return gen, nil
}

// Lookup implements Conn.
func (sc *sockConn) Lookup(ctx context.Context, name string) (RemoteSet, error) {
	req, err := appendString(nil, name)
	if err != nil {
		return nil, err
	}
	resp, err := sc.roundTrip(ctx, msgLookupReq, req)
	if err != nil {
		return nil, err
	}
	if len(resp.payload) < 4 {
		return nil, fmt.Errorf("transport: short lookup response")
	}
	handle := wireLE.Uint32(resp.payload)
	meta, err := metric.ParseMeta(resp.payload[4:])
	putBuf(resp.payload)
	if err != nil {
		return nil, err
	}
	return &sockRemoteSet{conn: sc, handle: handle, meta: meta}, nil
}

// Close implements Conn.
func (sc *sockConn) Close() error {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	err := sc.c.Close()
	sc.fail(ErrClosed)
	return err
}

// UpdateBatch implements BatchUpdater: all request frames are written
// under one write-lock hold with a single flush, then responses (matched
// by request ID, which may arrive in any order relative to the remote's
// own traffic on this symmetric connection) are awaited together. An
// error frame for one op is recorded on that op alone.
//
// Ops that carry an acknowledged base DGN become delta update requests;
// the server's response is either a delta patched into Dst or a full chunk
// (its fallback). Ops without one are plain full-chunk update requests.
func (sc *sockConn) UpdateBatch(ctx context.Context, ops []UpdateOp) {
	if len(ops) == 0 {
		return
	}
	sets := make([]*sockRemoteSet, len(ops))
	for i := range ops {
		rs, ok := ops[i].Set.(*sockRemoteSet)
		if !ok || rs.conn != sc {
			// Foreign handle in the batch: no pipelining across
			// connections, fall back to per-op round trips.
			sequentialUpdates(ctx, ops)
			return
		}
		sets[i] = rs
	}
	ch := make(chan sockResp, len(ops))
	first, err := sc.register(len(ops), ch)
	if err != nil {
		failOps(ops, err)
		return
	}
	for i := range ops {
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, errUnresolved, false
	}

	sc.wmu.Lock()
	var werr error
	for i, rs := range sets {
		typ := byte(msgUpdateReq)
		sc.scratch = wireLE.AppendUint32(sc.scratch[:0], rs.handle)
		if ops[i].HaveAck {
			typ = msgDeltaUpdateReq
			sc.scratch = wireLE.AppendUint64(sc.scratch, ops[i].AckDGN)
		}
		if werr = writeFrame(sc.w, typ, first+uint64(i), sc.scratch); werr != nil {
			break
		}
		sc.countOut(frameHeader + len(sc.scratch))
	}
	if werr == nil {
		werr = sc.w.Flush()
	}
	sc.wmu.Unlock()
	sc.batches.Add(1)
	sc.batchedOps.Add(int64(len(ops)))
	if werr != nil {
		sc.deregister(first, len(ops))
		sc.resolveDelivered(ops, first, ch)
		for i := range ops {
			if ops[i].Err == errUnresolved {
				ops[i].Err = werr
			}
		}
		return
	}

	pending := len(ops)
	for pending > 0 {
		select {
		case r := <-ch:
			if sc.resolveOp(ops, first, r) {
				pending--
			}
		case <-ctx.Done():
			sc.deregister(first, len(ops))
			sc.resolveDelivered(ops, first, ch)
			for i := range ops {
				if ops[i].Err == errUnresolved {
					ops[i].Err = ctx.Err()
				}
			}
			return
		}
	}
}

// resolveOp applies one delivered response to its op; it reports whether
// the response matched an unresolved op in this batch.
func (sc *sockConn) resolveOp(ops []UpdateOp, first uint64, r sockResp) bool {
	i := int(r.id - first)
	if i < 0 || i >= len(ops) || ops[i].Err != errUnresolved {
		putBuf(r.payload)
		return false
	}
	// Data-bearing responses carry a trace-block prefix; peel it into the
	// op before decoding the rest. The trace bytes are copied out because
	// r.payload is recycled below.
	ops[i].Trace = ops[i].Trace[:0]
	payload := r.payload
	if r.err == nil && r.typ != msgErrResp {
		trace, rest, err := splitTracePrefix(payload)
		if err != nil {
			ops[i].Err = err
			putBuf(r.payload)
			return true
		}
		ops[i].Trace = append(ops[i].Trace, trace...)
		payload = rest
	}
	switch {
	case r.err != nil:
		ops[i].Err = r.err
	case r.typ == msgErrResp:
		ops[i].Err = respError(r.payload)
	case r.typ == msgDeltaUpdateResp:
		resolveDeltaResp(&ops[i], payload, r.payload)
		if ops[i].Err == nil {
			sc.countUpdate(ops[i].WasDelta)
		}
	case len(ops[i].Dst) < len(payload):
		ops[i].Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(ops[i].Dst), len(payload))
		putBuf(r.payload)
	default:
		ops[i].N, ops[i].Err = copy(ops[i].Dst, payload), nil
		putBuf(r.payload)
		sc.countUpdate(false)
	}
	return true
}

// resolveDeltaResp decodes a delta update response into its op: kind full
// copies the chunk, kind delta patches Dst in place via the set metadata.
// payload may be a sub-slice of owned (a trace prefix was peeled off);
// owned is what goes back to the buffer pool.
func resolveDeltaResp(op *UpdateOp, payload, owned []byte) {
	defer putBuf(owned)
	if len(payload) < 1 {
		op.Err = errShortDeltaResp
		return
	}
	switch payload[0] {
	case deltaKindFull:
		if len(op.Dst) < len(payload)-1 {
			op.Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(op.Dst), len(payload)-1)
			return
		}
		op.N, op.Err = copy(op.Dst, payload[1:]), nil
	case deltaKindDelta:
		ds := op.Set.Meta().DataSize
		if len(op.Dst) < ds {
			op.Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(op.Dst), ds)
			return
		}
		if err := op.Set.Meta().ApplyDelta(op.Dst[:ds], payload[1:]); err != nil {
			op.Err = err
			return
		}
		op.N, op.Err, op.WasDelta = ds, nil, true
	default:
		op.Err = errBadDeltaResp
	}
}

// resolveDelivered drains already-buffered responses after the batch gave
// up waiting, so responses that raced the cancellation still land.
func (sc *sockConn) resolveDelivered(ops []UpdateOp, first uint64, ch chan sockResp) {
	for {
		select {
		case r := <-ch:
			sc.resolveOp(ops, first, r)
		default:
			return
		}
	}
}

// sockRemoteSet is a lookup handle over a TCP connection.
type sockRemoteSet struct {
	conn   *sockConn
	handle uint32
	meta   *metric.Meta
}

// Meta implements RemoteSet.
func (rs *sockRemoteSet) Meta() *metric.Meta { return rs.meta }

// Update implements RemoteSet: always a full-chunk pull (delta updates
// ride the batch path, which owns the acknowledged-DGN bookkeeping).
func (rs *sockRemoteSet) Update(ctx context.Context, dst []byte) (int, error) {
	var hb [4]byte
	wireLE.PutUint32(hb[:], rs.handle)
	resp, err := rs.conn.roundTrip(ctx, msgUpdateReq, hb[:])
	if err != nil {
		return 0, err
	}
	// Single round trips have no op to carry the trace into; peel the
	// prefix and discard it.
	_, payload, err := splitTracePrefix(resp.payload)
	if err != nil {
		putBuf(resp.payload)
		return 0, err
	}
	if len(dst) < len(payload) {
		putBuf(resp.payload)
		return 0, fmt.Errorf("transport: update buffer too small: %d < %d", len(dst), len(payload))
	}
	n := copy(dst, payload)
	putBuf(resp.payload)
	rs.conn.countUpdate(false)
	return n, nil
}
