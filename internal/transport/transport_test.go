package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
)

// newTestRegistry builds a registry with n small sets named set00..,
// sampled once.
func newTestRegistry(t *testing.T, n int) *metric.Registry {
	t.Helper()
	reg := metric.NewRegistry()
	for i := 0; i < n; i++ {
		sch := metric.NewSchema(fmt.Sprintf("schema%02d", i))
		sch.MustAddMetric("a", metric.TypeU64)
		sch.MustAddMetric("b", metric.TypeD64)
		set, err := metric.New(fmt.Sprintf("set%02d", i), sch, metric.WithCompID(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		set.BeginTransaction()
		set.SetU64(0, uint64(100+i))
		set.SetF64(1, float64(i)/2)
		set.EndTransaction(time.Unix(int64(1000+i), 0))
		if err := reg.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// exerciseTransport runs the full dir/lookup/update flow over any factory.
func exerciseTransport(t *testing.T, f Factory, addr string) {
	t.Helper()
	reg := newTestRegistry(t, 3)
	srv := NewServer(reg)
	ln, err := f.Listen(addr, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	conn, err := f.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	names, err := conn.Dir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "set00" {
		t.Fatalf("dir = %v", names)
	}

	rs, err := conn.Lookup(ctx, "set01")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Meta().Instance != "set01" || rs.Meta().SchemaName != "schema01" {
		t.Fatalf("meta = %+v", rs.Meta())
	}

	mir, err := rs.Meta().NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rs.Meta().DataSize)
	n, err := rs.Update(ctx, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != rs.Meta().DataSize {
		t.Fatalf("update returned %d bytes, want %d", n, rs.Meta().DataSize)
	}
	if err := mir.LoadData(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if got := mir.U64(0); got != 101 {
		t.Errorf("mirrored a = %d want 101", got)
	}
	if got := mir.F64(1); got != 0.5 {
		t.Errorf("mirrored b = %g want 0.5", got)
	}
	if !mir.Consistent() {
		t.Error("mirror should be consistent")
	}

	// Unknown set.
	if _, err := conn.Lookup(ctx, "nope"); err == nil {
		t.Error("lookup of unknown set succeeded")
	}

	st := srv.Stats()
	if st.Dirs != 1 || st.Lookups != 1 || st.Updates != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesOut == 0 {
		t.Error("no bytes accounted")
	}
}

func TestSockTransport(t *testing.T) {
	exerciseTransport(t, SockFactory{}, "127.0.0.1:0")
}

func TestMemTransport(t *testing.T) {
	exerciseTransport(t, MemFactory{Net: NewNetwork()}, "node1")
}

func TestRDMATransport(t *testing.T) {
	exerciseTransport(t, RDMAFactory{Kind: "ugni"}, "127.0.0.1:0")
}

func TestSockConcurrentUpdates(t *testing.T) {
	reg := newTestRegistry(t, 8)
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
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := conn.Lookup(ctx, fmt.Sprintf("set%02d", i))
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, rs.Meta().DataSize)
			for k := 0; k < 50; k++ {
				if _, err := rs.Update(ctx, buf); err != nil {
					errs <- err
					return
				}
			}
			mir, err := rs.Meta().NewMirror()
			if err != nil {
				errs <- err
				return
			}
			if err := mir.LoadData(buf); err != nil {
				errs <- err
				return
			}
			if got := mir.U64(0); got != uint64(100+i) {
				errs <- fmt.Errorf("set %d: got %d", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Updates != 8*50 {
		t.Errorf("updates = %d want 400", st.Updates)
	}
}

func TestRDMAOneSidedAccounting(t *testing.T) {
	reg := newTestRegistry(t, 1)
	srv := NewServer(reg)
	ln, err := RDMAFactory{Kind: "rdma"}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := RDMAFactory{Kind: "rdma"}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	rs, err := conn.Lookup(ctx, "set00")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rs.Meta().DataSize)
	for i := 0; i < 100; i++ {
		if _, err := rs.Update(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.NICCPU == 0 {
		t.Error("one-sided updates should accrue NIC time")
	}
	// Updates must not be charged to host CPU (only the lookup is).
	if st.HostCPU > st.NICCPU && st.HostCPU > time.Millisecond {
		t.Errorf("host CPU %v suspiciously high for one-sided transport", st.HostCPU)
	}
}

func TestMemDialUnknownAddress(t *testing.T) {
	f := MemFactory{Net: NewNetwork()}
	if _, err := f.Dial("ghost"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestMemDuplicateBind(t *testing.T) {
	f := MemFactory{Net: NewNetwork()}
	srv := NewServer(metric.NewRegistry())
	if _, err := f.Listen("a", srv); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("a", srv); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestMemListenerCloseFailsConns(t *testing.T) {
	f := MemFactory{Net: NewNetwork()}
	srv := NewServer(newTestRegistry(t, 1))
	ln, _ := f.Listen("a", srv)
	conn, err := f.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := conn.Dir(context.Background()); err == nil {
		t.Fatal("operation on closed listener succeeded")
	}
	// Address can be rebound after close.
	if _, err := f.Listen("a", srv); err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
}

func TestSockCloseUnblocksWaiters(t *testing.T) {
	reg := newTestRegistry(t, 1)
	srv := NewServer(reg)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // server goes away
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := conn.Dir(ctx); err == nil {
		t.Fatal("dir over dead server succeeded")
	}
	conn.Close()
}

func TestSockContextCancellation(t *testing.T) {
	reg := newTestRegistry(t, 1)
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.Dir(ctx); err == nil {
		t.Fatal("cancelled context should fail the request")
	}
}

func TestFanInConstants(t *testing.T) {
	cases := []struct {
		f    Factory
		want int
	}{
		{SockFactory{}, 9000},
		{RDMAFactory{Kind: "rdma"}, 9000},
		{RDMAFactory{Kind: "ugni"}, 15000},
		{MemFactory{Kind: "ugni"}, 15000},
		{MemFactory{}, 9000},
	}
	for _, c := range cases {
		if got := c.f.MaxFanIn(); got != c.want {
			t.Errorf("%s MaxFanIn = %d want %d", c.f.Name(), got, c.want)
		}
	}
}

func TestWireStringRoundTrip(t *testing.T) {
	b, err := appendString(nil, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if b, err = appendString(b, ""); err != nil {
		t.Fatal(err)
	}
	if b, err = appendString(b, "world"); err != nil {
		t.Fatal(err)
	}
	s1, pos, err := readString(b, 0)
	if err != nil || s1 != "hello" {
		t.Fatalf("s1=%q err=%v", s1, err)
	}
	s2, pos, err := readString(b, pos)
	if err != nil || s2 != "" {
		t.Fatalf("s2=%q err=%v", s2, err)
	}
	s3, _, err := readString(b, pos)
	if err != nil || s3 != "world" {
		t.Fatalf("s3=%q err=%v", s3, err)
	}
	if _, _, err := readString(b, len(b)); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestDirRespRoundTrip(t *testing.T) {
	names := []string{"a/b", "c", "a-very-long-set-instance-name/with/slashes"}
	enc, err := encodeDirResp(names)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDirResp(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("got %v", got)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Errorf("name %d = %q want %q", i, got[i], names[i])
		}
	}
	if _, err := decodeDirResp([]byte{1}); err == nil {
		t.Error("short dir response accepted")
	}
}

// TestReversedConnectionInitiation exercises §IV-B's asymmetric network
// access: the serving side (a sampler) dials the pulling side (an
// aggregator), which then performs lookup/update over the incoming
// connection.
func TestReversedConnectionInitiation(t *testing.T) {
	reg := newTestRegistry(t, 2) // the dialer's sets
	samplerSrv := NewServer(reg)

	peers := make(chan struct {
		name string
		conn Conn
	}, 1)
	// The aggregator listens; it serves nothing itself.
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(metric.NewRegistry()),
		func(name string, conn Conn) {
			peers <- struct {
				name string
				conn Conn
			}{name, conn}
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The sampler dials in, announcing itself, serving its registry.
	out, err := SockFactory{}.DialNamed(ln.Addr(), "nid00042", samplerSrv)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	var peer struct {
		name string
		conn Conn
	}
	select {
	case peer = <-peers:
	case <-time.After(5 * time.Second):
		t.Fatal("no peer announcement")
	}
	if peer.name != "nid00042" {
		t.Fatalf("peer name = %q", peer.name)
	}

	// The aggregator pulls over the incoming connection.
	ctx := context.Background()
	names, err := peer.conn.Dir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("dir over reversed connection = %v", names)
	}
	rs, err := peer.conn.Lookup(ctx, "set01")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rs.Meta().DataSize)
	if _, err := rs.Update(ctx, buf); err != nil {
		t.Fatal(err)
	}
	mir, _ := rs.Meta().NewMirror()
	if err := mir.LoadData(buf); err != nil {
		t.Fatal(err)
	}
	if got := mir.U64(0); got != 101 {
		t.Errorf("value over reversed connection = %d want 101", got)
	}
	if st := samplerSrv.Stats(); st.Updates != 1 || st.Lookups != 1 {
		t.Errorf("sampler served %+v", st)
	}
}

// TestPlainDialToPeerListener ensures ordinary (non-announcing) dials work
// against a peer listener too.
func TestPlainDialToPeerListener(t *testing.T) {
	reg := newTestRegistry(t, 1)
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(reg), func(string, Conn) {
		t.Error("plain dial should not announce")
	})
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
	if err != nil || len(names) != 1 {
		t.Fatalf("dir = %v err=%v", names, err)
	}
}

// TestDialerWithoutServerRejectsRequests covers the peer that dials
// without offering a registry.
func TestDialerWithoutServerRejectsRequests(t *testing.T) {
	peers := make(chan Conn, 1)
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(metric.NewRegistry()),
		func(_ string, conn Conn) { peers <- conn })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := SockFactory{}.DialNamed(ln.Addr(), "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	conn := <-peers
	if _, err := conn.Dir(context.Background()); err == nil {
		t.Fatal("non-serving peer answered dir")
	}
}
