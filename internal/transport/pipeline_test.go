package transport

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
)

// lookupAll looks up every named set and pairs each handle with an update
// buffer, ready for UpdateAll.
func lookupAll(t *testing.T, conn Conn, names []string) []UpdateOp {
	t.Helper()
	ops := make([]UpdateOp, len(names))
	for i, name := range names {
		rs, err := conn.Lookup(context.Background(), name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		ops[i] = UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}
	}
	return ops
}

// checkOps verifies every op succeeded and mirrors carry the values
// newTestRegistry wrote (a = 100+i).
func checkOps(t *testing.T, ops []UpdateOp) {
	t.Helper()
	for i, op := range ops {
		if op.Err != nil {
			t.Fatalf("op %d: %v", i, op.Err)
		}
		mir, err := op.Set.Meta().NewMirror()
		if err != nil {
			t.Fatal(err)
		}
		if err := mir.LoadData(op.Dst[:op.N]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got := mir.U64(0); got != uint64(100+i) {
			t.Errorf("op %d: a = %d want %d", i, got, 100+i)
		}
	}
}

func TestSockUpdateBatch(t *testing.T) {
	reg := newTestRegistry(t, 8)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)

	// A second batch reuses the same handles (and recycled buffers).
	for i := range ops {
		ops[i].N, ops[i].Err = 0, nil
	}
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
}

// TestSockPipelineSymmetricInterleave drives pipelined update batches from
// BOTH ends of one TCP connection at once: the listener pulls the dialer's
// sets while the dialer pulls the listener's, so update responses
// interleave with incoming server-half requests on each side. Every op
// must still resolve to its own set's data.
func TestSockPipelineSymmetricInterleave(t *testing.T) {
	aggReg := newTestRegistry(t, 6)
	smpReg := newTestRegistry(t, 6)

	peerCh := make(chan Conn, 1)
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(aggReg), func(name string, conn Conn) {
		if name == "smp" {
			peerCh <- conn
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	dialConn, err := SockFactory{}.DialNamed(ln.Addr(), "smp", NewServer(smpReg))
	if err != nil {
		t.Fatal(err)
	}
	defer dialConn.Close()
	aggConn := <-peerCh

	aggOps := lookupAll(t, aggConn, smpReg.Dir())
	smpOps := lookupAll(t, dialConn, aggReg.Dir())

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := range aggOps {
				aggOps[i].N, aggOps[i].Err = 0, nil
			}
			UpdateAll(context.Background(), aggConn, aggOps)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := range smpOps {
				smpOps[i].N, smpOps[i].Err = 0, nil
			}
			UpdateAll(context.Background(), dialConn, smpOps)
		}
	}()
	wg.Wait()
	checkOps(t, aggOps)
	checkOps(t, smpOps)
}

// TestSockUpdateBatchMidBatchError forges a stale handle in the middle of
// a batch: only that op may fail, the rest of the pipeline must complete.
func TestSockUpdateBatchMidBatchError(t *testing.T) {
	reg := newTestRegistry(t, 4)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ops := lookupAll(t, conn, reg.Dir())
	sc := conn.(*sockConn)
	good := ops[1].Set.(*sockRemoteSet)
	ops[1].Set = &sockRemoteSet{conn: sc, handle: 9999, meta: good.meta}

	UpdateAll(context.Background(), conn, ops)
	if ops[1].Err == nil || !strings.Contains(ops[1].Err.Error(), "unknown set handle") {
		t.Fatalf("forged op error = %v, want unknown set handle", ops[1].Err)
	}
	for i, op := range ops {
		if i == 1 {
			continue
		}
		if op.Err != nil {
			t.Fatalf("op %d failed alongside the bad handle: %v", i, op.Err)
		}
		if op.N == 0 {
			t.Fatalf("op %d fetched no data", i)
		}
	}
}

// TestMemUpdateBatchDelayOnce checks the mem transport charges its Delay
// hook once per pipelined batch, not once per op.
func TestMemUpdateBatchDelayOnce(t *testing.T) {
	reg := newTestRegistry(t, 5)
	var batches, perOp atomic.Int64
	fac := MemFactory{Net: NewNetwork(), Delay: func(addr, op string) {
		switch op {
		case "update_batch":
			batches.Add(1)
		case "update":
			perOp.Add(1)
		}
	}}
	if _, err := fac.Listen("node", NewServer(reg)); err != nil {
		t.Fatal(err)
	}
	conn, err := fac.Dial("node")
	if err != nil {
		t.Fatal(err)
	}
	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
	if got := batches.Load(); got != 1 {
		t.Errorf("update_batch delays = %d want 1", got)
	}
	if got := perOp.Load(); got != 0 {
		t.Errorf("per-op update delays = %d want 0", got)
	}
}

// BenchmarkSockUpdate compares one-at-a-time round trips with the
// pipelined batch path over a real TCP loopback connection.
func BenchmarkSockUpdate(b *testing.B) {
	const nsets = 64
	reg := metric.NewRegistry()
	for i := 0; i < nsets; i++ {
		sch := metric.NewSchema(fmt.Sprintf("schema%02d", i))
		sch.MustAddMetric("a", metric.TypeU64)
		sch.MustAddMetric("b", metric.TypeD64)
		set, err := metric.New(fmt.Sprintf("set%02d", i), sch)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Add(set); err != nil {
			b.Fatal(err)
		}
	}
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	ops := make([]UpdateOp, nsets)
	for i, name := range reg.Dir() {
		rs, err := conn.Lookup(context.Background(), name)
		if err != nil {
			b.Fatal(err)
		}
		ops[i] = UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}
	}
	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sequentialUpdates(ctx, ops)
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			UpdateAll(ctx, conn, ops)
		}
	})
}

// readDGN extracts the data generation number from a pulled data chunk, the
// value an updater acknowledges on its next delta request.
func readDGN(t *testing.T, op UpdateOp) uint64 {
	t.Helper()
	mir, err := op.Set.Meta().NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	if err := mir.LoadData(op.Dst[:op.N]); err != nil {
		t.Fatal(err)
	}
	return mir.DGN()
}

// TestSockDeltaUpdates drives the delta protocol end to end over TCP: a full
// first pull, then an acknowledged pull that must arrive as a delta and
// patch the buffer to exactly the server's current bytes, then a bogus
// (future) ack that must transparently fall back to a full chunk.
func TestSockDeltaUpdates(t *testing.T) {
	reg := newTestRegistry(t, 4)
	srv := NewServer(reg)
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
	ctx := context.Background()
	if _, err := conn.Dir(ctx); err != nil {
		t.Fatal(err)
	}

	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Fatalf("op %d: first pull arrived as a delta", i)
		}
		ops[i].AckDGN, ops[i].HaveAck = readDGN(t, ops[i]), true
	}

	// Mutate one metric per set, then pull with acks: every response must
	// be a delta and the patched chunks must match the new values.
	for i, name := range reg.Dir() {
		set := reg.Get(name)
		set.BeginTransaction()
		set.SetU64(0, uint64(100+i)) // checkOps expects a = 100+i
		set.EndTransaction(time.Unix(2000, 0))
	}
	for i := range ops {
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, nil, false
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if !ops[i].WasDelta {
			t.Errorf("op %d: acknowledged pull was not a delta", i)
		}
	}
	st, _ := StatsOf(conn)
	if st.Updates != 8 || st.DeltaUpdates != 4 {
		t.Errorf("conn stats updates=%d delta=%d, want 8/4", st.Updates, st.DeltaUpdates)
	}
	if got := srv.Stats().DeltaUpdates; got != 4 {
		t.Errorf("server delta updates = %d want 4", got)
	}

	// A future ack (the peer restarted, generations rewound) must fall back
	// to a full chunk, not an error.
	for i := range ops {
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, nil, false
		ops[i].AckDGN = 1 << 60
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Errorf("op %d: future ack still answered with a delta", i)
		}
	}
}

// TestSockDeltaBytesPerSample verifies the wire saving the delta path
// exists for: steady-state acknowledged pulls of a wide set move far fewer
// bytes per sample than unacknowledged (full-chunk) pulls of the same set.
func TestSockDeltaBytesPerSample(t *testing.T) {
	sch := metric.NewSchema("wide")
	for i := 0; i < 64; i++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", i), metric.TypeU64)
	}
	set, err := metric.New("wide0", sch)
	if err != nil {
		t.Fatal(err)
	}
	reg := metric.NewRegistry()
	if err := reg.Add(set); err != nil {
		t.Fatal(err)
	}
	// Seed every metric with pseudorandom bits so the full chunk looks like
	// real telemetry (counters at arbitrary values) rather than zeros that
	// frame compression would collapse on its own.
	set.BeginTransaction()
	seed := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 64; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		set.SetU64(i, seed)
	}
	set.EndTransaction(time.Unix(1, 0))
	tick := func(v uint64) {
		set.BeginTransaction()
		set.SetU64(3, v) // one changing metric out of 64
		set.EndTransaction(time.Unix(int64(v), 0))
	}
	tick(1)

	pull := func(ack bool) (perSample float64, deltas int64) {
		ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := SockFactory{}.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ctx := context.Background()
		if _, err := conn.Dir(ctx); err != nil {
			t.Fatal(err)
		}
		rs, err := conn.Lookup(ctx, "wide0")
		if err != nil {
			t.Fatal(err)
		}
		ops := []UpdateOp{{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}}
		UpdateAll(ctx, conn, ops)
		if ops[0].Err != nil {
			t.Fatal(ops[0].Err)
		}
		base, _ := StatsOf(conn)
		const rounds = 50
		for r := 0; r < rounds; r++ {
			tick(uint64(2 + r))
			if ack {
				ops[0].AckDGN, ops[0].HaveAck = readDGN(t, ops[0]), true
			}
			ops[0].N, ops[0].Err = 0, nil
			UpdateAll(ctx, conn, ops)
			if ops[0].Err != nil {
				t.Fatal(ops[0].Err)
			}
		}
		st, _ := StatsOf(conn)
		return float64(st.BytesIn-base.BytesIn) / rounds, st.DeltaUpdates
	}

	full, fdeltas := pull(false)
	delta, ddeltas := pull(true)
	if fdeltas != 0 {
		t.Fatalf("unacknowledged pulls produced %d deltas", fdeltas)
	}
	if ddeltas == 0 {
		t.Fatal("acknowledged pulls produced no deltas")
	}
	if delta*5 > full {
		t.Errorf("delta path = %.1f B/sample, full = %.1f: saving < 5x", delta, full)
	}
}

// TestSockCompressionSavesBytes checks that a large, repetitive directory
// response goes over the wire deflated: the frame received must be smaller
// than the raw encoded frame and still decode to the same names.
func TestSockCompressionSavesBytes(t *testing.T) {
	reg := metric.NewRegistry()
	for i := 0; i < 40; i++ {
		sch := metric.NewSchema(fmt.Sprintf("schema%02d", i))
		sch.MustAddMetric("a", metric.TypeU64)
		set, err := metric.New(fmt.Sprintf("very/long/compressible/instance/name/%04d", i), sch)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
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
	if want := reg.Dir(); !reflect.DeepEqual(names, want) {
		t.Fatalf("dir = %v, want %v", names, want)
	}
	raw, err := encodeDirResp(names)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := StatsOf(conn)
	if plain := int64(frameHeader + len(raw)); st.BytesIn >= plain {
		t.Errorf("compressed dir moved %d B, uncompressed frame is %d B", st.BytesIn, plain)
	}
}
