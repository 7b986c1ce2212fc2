package transport

import (
	"bytes"
	"testing"
	"time"

	"goldms/internal/metric"
)

// FuzzReadFrame throws hostile byte streams at the frame reader. Any input
// may error; none may panic, and a frame that decodes must be bounded by
// what was actually read (the length word alone must never cause a large
// up-front allocation — readPayload grows incrementally, so a lying header
// on a short stream fails after at most one chunk).
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	writeFrame(&seed, msgDirResp, 7, []byte("hello"))
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:3])
	huge := make([]byte, frameHeader)
	wireLE.PutUint32(huge, 1<<30)
	f.Add(huge)
	lying := make([]byte, frameHeader+10)
	wireLE.PutUint32(lying, maxFrame) // in-bounds length, truncated body
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", len(payload), len(data))
		}
		// Whatever decoded may also be fed to the decompressor dispatch
		// (the read loop's next step) without panicking.
		if _, _, err := maybeInflate(typ|compressFlag, payload); err == nil && typ&compressFlag == 0 {
			_ = err
		}
	})
}

// FuzzDecodeDelta drives the decoders that consume peer-controlled update
// payloads: delta application against a live schema and compressed-frame
// inflation.
// Hostile input must error — never panic, never write outside the chunk.
func FuzzDecodeDelta(f *testing.F) {
	sch := metric.NewSchema("fuzz")
	sch.MustAddMetric("a", metric.TypeU64)
	sch.MustAddMetric("b", metric.TypeU8)
	sch.MustAddMetric("c", metric.TypeD64)
	set, err := metric.New("fuzz0", sch)
	if err != nil {
		f.Fatal(err)
	}
	set.BeginTransaction()
	set.SetU64(0, 42)
	set.EndTransaction(time.Unix(1, 0))
	meta, err := metric.ParseMeta(set.MetaBytes())
	if err != nil {
		f.Fatal(err)
	}

	// Seed with one genuine delta payload so the corpus explores the happy
	// path's neighborhood.
	srv := NewServer(metric.NewRegistry())
	buf := getBuf(1 + set.DataSize() + 64)
	out := srv.serveUpdateDelta(set, 0, buf)
	f.Add(append([]byte(nil), out...))
	putBuf(buf)
	f.Add([]byte{deltaKindFull})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		chunk := make([]byte, meta.DataSize)
		if err := meta.ApplyDelta(chunk, data); err == nil {
			// Applied deltas must leave a loadable chunk.
			mir, merr := meta.NewMirror()
			if merr != nil {
				t.Fatal(merr)
			}
			if lerr := mir.LoadData(chunk); lerr != nil {
				t.Fatalf("applied delta produced unloadable chunk: %v", lerr)
			}
		}
		maybeInflate(msgDirResp|compressFlag, data)
	})
}
