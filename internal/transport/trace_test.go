package transport

import (
	"context"
	"testing"

	"goldms/internal/metric"
	"goldms/internal/obs"
)

// testTraceHook returns a Server Trace hook that appends a fixed
// two-hop chain for whatever set is served.
func testTraceHook() func(*metric.Set, []byte) []byte {
	chain := []obs.HopRecord{
		{Daemon: "leaf01", Role: obs.RoleLeaf, Pull: 1_000_000_000},
		{Daemon: "mid-a", Role: obs.RoleMid, Pull: 2_000_000_000, Store: 2_500_000_000},
	}
	return func(_ *metric.Set, dst []byte) []byte {
		return obs.AppendHops(dst, chain)
	}
}

// TestSockTraceNegotiated: update responses carry the server's TRC1 block
// into UpdateOp.Trace while the data payload stays intact.
func TestSockTraceNegotiated(t *testing.T) {
	reg := newTestRegistry(t, 3)
	srv := NewServer(reg)
	srv.Trace = testTraceHook()
	ln, err := SockFactory{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	names, err := conn.Dir(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ops := lookupAll(t, conn, names)
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)

	var dec obs.HopDecoder
	for i := range ops {
		if len(ops[i].Trace) == 0 {
			t.Fatalf("op %d: no trace block in the update response", i)
		}
		hops, err := dec.Decode(ops[i].Trace, nil)
		if err != nil {
			t.Fatalf("op %d: decode trace: %v", i, err)
		}
		if len(hops) != 2 || hops[0].Daemon != "leaf01" || hops[1].Daemon != "mid-a" {
			t.Fatalf("op %d: hops = %+v", i, hops)
		}
		if hops[1].Store != 2_500_000_000 {
			t.Fatalf("op %d: store stamp lost: %+v", i, hops[1])
		}
	}

	// A second batch recycles the Trace buffers without stale bytes.
	for i := range ops {
		ops[i].N, ops[i].Err = 0, nil
	}
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if hops, err := dec.Decode(ops[i].Trace, nil); err != nil || len(hops) != 2 {
			t.Fatalf("op %d second pass: hops=%v err=%v", i, hops, err)
		}
	}
}

// TestMemTraceParity: the in-process transport moves trace blocks the
// same way the sock transport does, so virtual-clock simulations
// exercise the identical pipeline.
func TestMemTraceParity(t *testing.T) {
	f := MemFactory{Net: NewNetwork()}
	reg := newTestRegistry(t, 2)
	srv := NewServer(reg)
	srv.Trace = testTraceHook()
	ln, err := f.Listen("hub", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := f.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
	var dec obs.HopDecoder
	for i := range ops {
		hops, err := dec.Decode(ops[i].Trace, nil)
		if err != nil || len(hops) != 2 {
			t.Fatalf("op %d: hops=%v err=%v", i, hops, err)
		}
	}
}
