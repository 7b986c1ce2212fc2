package transport

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
)

// BenchmarkDeltaUpdate measures the headline number of the delta protocol:
// wire bytes per pulled sample on a 256-set fan-in where one metric in 64
// moves per sampling round — the steady-telemetry shape (mostly-idle
// counters) the delta encoding is built for. The full sub-benchmark never
// acknowledges a pull, so every request is a plain update answered with the
// whole data chunk; the delta sub-benchmark acknowledges each pull and
// receives only changed metrics. CI gates delta at >= 5x fewer
// bytes per sample than full.
//
// Every metric is seeded with incompressible pseudorandom bits: real
// telemetry is counters at arbitrary values, and zero-filled chunks would
// let plain frame compression collapse the full path on its own, masking
// the saving under measurement.
func BenchmarkDeltaUpdate(b *testing.B) {
	const nsets, nmetrics = 256, 64
	reg := metric.NewRegistry()
	sets := make([]*metric.Set, nsets)
	sch := metric.NewSchema("bench_wide")
	for j := 0; j < nmetrics; j++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", j), metric.TypeU64)
	}
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range sets {
		set, err := metric.New(fmt.Sprintf("bench/set%03d", i), sch)
		if err != nil {
			b.Fatal(err)
		}
		set.BeginTransaction()
		for j := 0; j < nmetrics; j++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			set.SetU64(j, seed)
		}
		set.EndTransaction(time.Unix(1, 0))
		if err := reg.Add(set); err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	round := uint64(1)
	tick := func() {
		round++
		for _, s := range sets {
			s.BeginTransaction()
			s.SetU64(3, round) // one moving metric out of 64
			s.EndTransaction(time.Unix(int64(round), 0))
		}
	}

	run := func(b *testing.B, f SockFactory, ack bool) {
		ln, err := f.Listen("127.0.0.1:0", NewServer(reg))
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		conn, err := f.Dial(ln.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		ctx := context.Background()
		if _, err := conn.Dir(ctx); err != nil {
			b.Fatal(err)
		}
		ops := make([]UpdateOp, 0, nsets)
		mirrors := make([]*metric.Set, 0, nsets)
		for _, name := range reg.Dir() {
			rs, err := conn.Lookup(ctx, name)
			if err != nil {
				b.Fatal(err)
			}
			mir, err := rs.Meta().NewMirror()
			if err != nil {
				b.Fatal(err)
			}
			ops = append(ops, UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)})
			mirrors = append(mirrors, mir)
		}
		// Prime with a full pull of every set; steady state starts acked.
		UpdateAll(ctx, conn, ops)
		for i := range ops {
			if ops[i].Err != nil {
				b.Fatal(ops[i].Err)
			}
		}
		base, _ := StatsOf(conn)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			tick()
			for i := range ops {
				if ack {
					// The updater's protocol: acknowledge the DGN of the chunk
					// the buffer truthfully holds from the previous pull.
					if err := mirrors[i].LoadData(ops[i].Dst[:ops[i].N]); err != nil {
						b.Fatal(err)
					}
					ops[i].AckDGN, ops[i].HaveAck = mirrors[i].DGN(), true
				}
				ops[i].N, ops[i].Err = 0, nil
			}
			UpdateAll(ctx, conn, ops)
			for i := range ops {
				if ops[i].Err != nil {
					b.Fatal(ops[i].Err)
				}
			}
		}
		b.StopTimer()
		st, _ := StatsOf(conn)
		if ack && st.DeltaUpdates == 0 {
			b.Fatal("acknowledged pulls produced no deltas")
		}
		if !ack && st.DeltaUpdates != 0 {
			b.Fatalf("unacknowledged pulls produced %d deltas", st.DeltaUpdates)
		}
		b.ReportMetric(float64(st.BytesIn-base.BytesIn)/float64(b.N*nsets), "B/sample")
	}

	b.Run("full", func(b *testing.B) { run(b, SockFactory{}, false) })
	b.Run("delta", func(b *testing.B) { run(b, SockFactory{}, true) })
}

// BenchmarkSockConnScale stands up one sock transport server and drives a
// live producer connection fleet through it: every connection is a real TCP
// dialer with its own registry, one sampled set each, pulled by the
// accepting side every pass exactly as an aggregator pulls its producers
// (dir, lookup, acknowledged delta pulls, per-connection stats). Reported
// metrics: conns (live connections actually driven), pass-ms (wall time of
// one full fleet pull pass), p99-ms (worst per-pull latency at the 99th
// percentile across passes).
//
// The flagship conns=10240 case is CI-gated: the run must reach the full
// fleet size and hold the p99 pull latency bound. Environments whose
// RLIMIT_NOFILE hard cap cannot cover two descriptors per connection are
// sized down to what the kernel allows (and report the smaller conns
// figure rather than failing). The buf sub-benchmarks pin the per-conn
// bufio size every factory uses: at thousands of mostly-idle
// connections, 4 KiB buffers hold footprint down with no pass-time cost —
// memory, not throughput, is what caps a goroutine-per-conn fleet.
func BenchmarkSockConnScale(b *testing.B) {
	b.Run("conns=1024/buf=4KiB", func(b *testing.B) {
		benchConnScale(b, 1024, defaultSockCfg)
	})
	b.Run("conns=1024/buf=32KiB", func(b *testing.B) {
		benchConnScale(b, 1024, sockCfg{rbuf: 32 << 10, wbuf: 32 << 10})
	})
	b.Run("conns=10240", func(b *testing.B) {
		benchConnScale(b, 10240, defaultSockCfg)
	})
}

func benchConnScale(b *testing.B, want int, cfg sockCfg) {
	limit := raiseFDLimit()
	conns := want
	// Two descriptors per loopback connection plus headroom for the
	// listener, epoll instances, and whatever the process already holds.
	if ceil := int(limit/2) - 256; conns > ceil {
		conns = ceil
		b.Logf("RLIMIT_NOFILE %d caps the fleet at %d connections (want %d)", limit, conns, want)
	}

	type peer struct {
		name string
		conn Conn
	}
	peerCh := make(chan peer, conns)
	ln, err := listenTCP("127.0.0.1:0", NewServer(metric.NewRegistry()), func(name string, conn Conn) {
		peerCh <- peer{name, conn}
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	// Producer fleet: one single-set registry per connection, all sharing
	// one schema, seeded with incompressible pseudorandom values.
	sch := metric.NewSchema("scale_load")
	for j := 0; j < 8; j++ {
		sch.MustAddMetric(fmt.Sprintf("m%d", j), metric.TypeU64)
	}
	sets := make([]*metric.Set, conns)
	clients := make([]Conn, conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	dialWorkers := 8 * runtime.GOMAXPROCS(0)
	if dialWorkers > 64 {
		dialWorkers = 64
	}
	var wg sync.WaitGroup
	var dialIdx atomic.Int64
	dialErr := make(chan error, conns)
	for w := 0; w < dialWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(dialIdx.Add(1)) - 1
				if i >= conns {
					return
				}
				set, err := metric.New(fmt.Sprintf("p%05d/load", i), sch)
				if err != nil {
					dialErr <- err
					return
				}
				set.BeginTransaction()
				seed := uint64(0x9e3779b97f4a7c15) ^ uint64(i)*6364136223846793005
				for j := 0; j < 8; j++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					set.SetU64(j, seed)
				}
				set.EndTransaction(time.Unix(1, 0))
				preg := metric.NewRegistry()
				if err := preg.Add(set); err != nil {
					dialErr <- err
					return
				}
				conn, err := dialTCP(ln.Addr(), fmt.Sprintf("p%05d", i), NewServer(preg), cfg)
				if err != nil {
					dialErr <- err
					return
				}
				sets[i], clients[i] = set, conn
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-dialErr:
		b.Fatalf("dial fleet: %v", err)
	default:
	}

	// Collect the accepted peer halves and index them by producer.
	peers := make([]Conn, conns)
	for collected := 0; collected < conns; collected++ {
		select {
		case p := <-peerCh:
			var i int
			if _, err := fmt.Sscanf(p.name, "p%05d", &i); err != nil || i < 0 || i >= conns {
				b.Fatalf("unexpected peer %q", p.name)
			}
			peers[i] = p.conn
		case <-time.After(60 * time.Second):
			b.Fatalf("accepted only %d of %d peers", collected, conns)
		}
	}

	// Aggregator setup on every peer connection: dir, then the one lookup. Parallel — each is an independent round trip.
	ctx := context.Background()
	ops := make([]UpdateOp, conns)
	mirrors := make([]*metric.Set, conns)
	var setupIdx atomic.Int64
	setupErr := make(chan error, conns)
	for w := 0; w < dialWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(setupIdx.Add(1)) - 1
				if i >= conns {
					return
				}
				if _, err := peers[i].Dir(ctx); err != nil {
					setupErr <- fmt.Errorf("dir p%05d: %w", i, err)
					return
				}
				rs, err := peers[i].Lookup(ctx, fmt.Sprintf("p%05d/load", i))
				if err != nil {
					setupErr <- fmt.Errorf("lookup p%05d: %w", i, err)
					return
				}
				mir, err := rs.Meta().NewMirror()
				if err != nil {
					setupErr <- err
					return
				}
				ops[i] = UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}
				mirrors[i] = mir
				// Priming pull: steady state starts with every chunk held.
				UpdateAll(ctx, peers[i], ops[i:i+1])
				if ops[i].Err != nil {
					setupErr <- fmt.Errorf("prime p%05d: %w", i, ops[i].Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-setupErr:
		b.Fatalf("fleet setup: %v", err)
	default:
	}

	pullWorkers := 4 * runtime.GOMAXPROCS(0)
	if pullWorkers > conns {
		pullWorkers = conns
	}
	lat := make([]time.Duration, conns)
	pass := func(round uint64) {
		// Producers sample, then the fleet is pulled with acknowledgments.
		for _, s := range sets {
			s.BeginTransaction()
			s.SetU64(3, round)
			s.EndTransaction(time.Unix(int64(round), 0))
		}
		var next atomic.Int64
		var pwg sync.WaitGroup
		for w := 0; w < pullWorkers; w++ {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= conns {
						return
					}
					t0 := time.Now()
					if err := mirrors[i].LoadData(ops[i].Dst[:ops[i].N]); err == nil {
						ops[i].AckDGN, ops[i].HaveAck = mirrors[i].DGN(), true
					}
					ops[i].N, ops[i].Err = 0, nil
					UpdateAll(ctx, peers[i], ops[i:i+1])
					lat[i] = time.Since(t0)
				}
			}()
		}
		pwg.Wait()
	}

	var worstP99, totalWall time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		t0 := time.Now()
		pass(uint64(2 + n))
		wall := time.Since(t0)
		totalWall += wall
		sorted := append([]time.Duration(nil), lat...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		if p99 := sorted[conns*99/100]; p99 > worstP99 {
			worstP99 = p99
		}
	}
	b.StopTimer()
	for i := range ops {
		if ops[i].Err != nil {
			b.Fatalf("pull p%05d: %v", i, ops[i].Err)
		}
	}
	var total ConnStats
	for i := range peers {
		st, _ := StatsOf(peers[i])
		total.Add(st)
	}
	if total.DeltaUpdates == 0 {
		b.Fatal("fleet pulls produced no delta updates")
	}
	b.ReportMetric(float64(conns), "conns")
	b.ReportMetric(float64(totalWall.Milliseconds())/float64(b.N), "pass-ms")
	b.ReportMetric(float64(worstP99)/float64(time.Millisecond), "p99-ms")
}
