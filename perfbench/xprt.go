package main

import (
	"context"
	"sync/atomic"

	"goldms/internal/transport"
)

// xprtCounts are one tier's transport operations as seen from the
// benchmark's wrapper, reconciled against the daemon's own counters.
type xprtCounts struct {
	batches, ops, opsOK, deltaOps, opErrors atomic.Int64
	// Bytes received, sampled around traced calls only.
	updateBytes, tracedOps  atomic.Int64
	connectBytes, tracedLUs atomic.Int64
}

// benchXprt wraps SockFactory for one daemon. Dialed connections count
// every operation and, while tracing, time each call and the bytes it
// received. The wrapper keeps the wrapped program's behaviour: it forwards
// the DirGen, UpdateBatch and ConnStats capabilities, and Lookup hands
// back sock's own RemoteSet so sock's UpdateBatch still pipelines.
type benchXprt struct {
	sock transport.SockFactory
	tr   *tracer
	n    xprtCounts
}

func (f *benchXprt) Name() string  { return f.sock.Name() }
func (f *benchXprt) MaxFanIn() int { return f.sock.MaxFanIn() }

func (f *benchXprt) Listen(addr string, srv *transport.Server) (transport.Listener, error) {
	return f.sock.Listen(addr, srv)
}

func (f *benchXprt) Dial(addr string) (transport.Conn, error) {
	c, err := f.sock.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &benchConn{inner: c, f: f}, nil
}

type benchConn struct {
	inner transport.Conn
	f     *benchXprt
}

var (
	_ transport.DirGenConn   = (*benchConn)(nil)
	_ transport.BatchUpdater = (*benchConn)(nil)
	_ transport.StatConn     = (*benchConn)(nil)
)

func (c *benchConn) bytesIn() int64 {
	st, _ := transport.StatsOf(c.inner)
	return st.BytesIn
}

func (c *benchConn) Dir(ctx context.Context) ([]string, error) {
	traced := c.f.tr.on()
	var before int64
	if traced {
		before = c.bytesIn()
	}
	h := c.f.tr.begin("transport.dir", -1, 0)
	names, err := c.inner.Dir(ctx)
	c.f.tr.end(h)
	if traced {
		c.f.n.connectBytes.Add(c.bytesIn() - before)
	}
	return names, err
}

func (c *benchConn) DirGen(ctx context.Context) (uint64, error) {
	h := c.f.tr.begin("transport.dirgen", -1, 0)
	gen, _, err := transport.DirGenOf(ctx, c.inner)
	c.f.tr.end(h)
	return gen, err
}

func (c *benchConn) Lookup(ctx context.Context, name string) (transport.RemoteSet, error) {
	traced := c.f.tr.on()
	var before int64
	if traced {
		before = c.bytesIn()
	}
	h := c.f.tr.begin("transport.lookup", -1, 0)
	rs, err := c.inner.Lookup(ctx, name)
	c.f.tr.end(h)
	if traced && err == nil {
		c.f.n.connectBytes.Add(c.bytesIn() - before)
		c.f.n.tracedLUs.Add(1)
	}
	return rs, err
}

func (c *benchConn) UpdateBatch(ctx context.Context, ops []transport.UpdateOp) {
	traced := c.f.tr.on()
	var before int64
	if traced {
		before = c.bytesIn()
	}
	h := c.f.tr.begin("transport.update_batch", -1, uint64(len(ops)))
	transport.UpdateAll(ctx, c.inner, ops)
	c.f.tr.end(h)
	n := &c.f.n
	n.batches.Add(1)
	n.ops.Add(int64(len(ops)))
	for i := range ops {
		if ops[i].Err != nil {
			n.opErrors.Add(1)
			continue
		}
		n.opsOK.Add(1)
		if ops[i].WasDelta {
			n.deltaOps.Add(1)
		}
	}
	if traced {
		n.updateBytes.Add(c.bytesIn() - before)
		n.tracedOps.Add(int64(len(ops)))
	}
}

func (c *benchConn) ConnStats() transport.ConnStats {
	st, _ := transport.StatsOf(c.inner)
	return st
}

func (c *benchConn) Close() error { return c.inner.Close() }
