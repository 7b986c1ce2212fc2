package transport

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// recConn records every byte written through it.
type recConn struct {
	net.Conn
	mu  sync.Mutex
	buf []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns and clears what was written since the last take.
func (c *recConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.buf
	c.buf = nil
	return b
}

// appendFrames renders each frame in b as one transcript entry: the op,
// the direction, the header bytes as they go on the wire (u32 payload
// length | u8 type | u64 request id) and the payload in 32-byte rows.
func appendFrames(t *testing.T, out *strings.Builder, op, dir string, b []byte) {
	t.Helper()
	for len(b) > 0 {
		if len(b) < frameHeader {
			t.Fatalf("%s %s: %d trailing bytes", op, dir, len(b))
		}
		n := frameHeader + int(wireLE.Uint32(b))
		if n > len(b) {
			t.Fatalf("%s %s: frame of %d bytes, %d recorded", op, dir, n, len(b))
		}
		fmt.Fprintf(out, "%s %s %x %x %x\n", op, dir, b[0:4], b[4:5], b[5:frameHeader])
		for p := b[frameHeader:n]; len(p) > 0; {
			row := p[:min(32, len(p))]
			p = p[len(row):]
			fmt.Fprintf(out, "    %s\n", hex.EncodeToString(row))
		}
		b = b[n:]
	}
}

// TestSockWireTranscript pins the sock wire protocol byte for byte: one
// connection's dir, dirgen, lookup, full update and delta update frames,
// trace prefixes and the deflated lookup response included. Any change to
// testdata/sock_transcript.golden is a wire change; docs/PROTOCOL.md
// describes this transcript. Regenerate with
//
//	go test ./internal/transport -run TestSockWireTranscript -update
func TestSockWireTranscript(t *testing.T) {
	// The served set is a mirror stamped with a fixed MGN: a set's own MGN
	// comes from a process-wide counter and would vary with test order.
	const mgn = 0x0102030405060708
	sch := metric.NewSchema("golden")
	for i := 0; i < 24; i++ {
		sch.MustAddMetric(fmt.Sprintf("metric_%02d", i), metric.TypeU64)
	}
	src, err := metric.New("node1/golden", sch)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := metric.ParseMeta(src.MetaBytes())
	if err != nil {
		t.Fatal(err)
	}
	meta.MGN = mgn
	set, err := meta.NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	sample := func(sec int64, vals func(i int) uint64) {
		src.BeginTransaction()
		for i := 0; i < 24; i++ {
			src.SetU64(i, vals(i))
		}
		src.EndTransaction(time.Unix(sec, 0))
		chunk := make([]byte, src.DataSize())
		src.CopyDataInto(chunk)
		wireLE.PutUint64(chunk, mgn)
		if err := set.LoadData(chunk); err != nil {
			t.Fatal(err)
		}
	}
	sample(1000, func(i int) uint64 { return uint64(1000 + i) })
	reg := metric.NewRegistry()
	if err := reg.Add(set); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	srv.Trace = testTraceHook()

	cp, sp := net.Pipe()
	crec, srec := &recConn{Conn: cp}, &recConn{Conn: sp}
	server := newSockConn(srec, srv, defaultSockCfg)
	go server.readLoop()
	defer server.Close()
	conn := newSockConn(crec, nil, defaultSockCfg)
	go conn.readLoop()
	defer conn.Close()

	var out strings.Builder
	out.WriteString("# Regenerate: go test ./internal/transport -run TestSockWireTranscript -update\n")
	record := func(op string) {
		appendFrames(t, &out, op, ">", crec.take())
		appendFrames(t, &out, op, "<", srec.take())
	}
	ctx := context.Background()
	if _, err := conn.Dir(ctx); err != nil {
		t.Fatal(err)
	}
	record("dir")
	if _, err := conn.DirGen(ctx); err != nil {
		t.Fatal(err)
	}
	record("dirgen")
	rs, err := conn.Lookup(ctx, "node1/golden")
	if err != nil {
		t.Fatal(err)
	}
	record("lookup")
	ops := []UpdateOp{{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}}
	UpdateAll(ctx, conn, ops)
	if ops[0].Err != nil || ops[0].WasDelta || len(ops[0].Trace) == 0 {
		t.Fatalf("full update: err=%v delta=%v trace=%d B", ops[0].Err, ops[0].WasDelta, len(ops[0].Trace))
	}
	record("update")

	sample(1001, func(i int) uint64 {
		if i == 3 {
			return 7
		}
		return uint64(1000 + i)
	})
	ops[0].AckDGN, ops[0].HaveAck = readDGN(t, ops[0]), true
	ops[0].N, ops[0].Err = 0, nil
	UpdateAll(ctx, conn, ops)
	if ops[0].Err != nil || !ops[0].WasDelta {
		t.Fatalf("delta update: err=%v delta=%v", ops[0].Err, ops[0].WasDelta)
	}
	record("delta")

	golden := filepath.Join("testdata", "sock_transcript.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/transport -run TestSockWireTranscript -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("wire transcript differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
