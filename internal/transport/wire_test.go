package transport

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ byte, id uint64, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, id, payload); err != nil {
			return false
		}
		gt, gid, gp, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return gt == typ && gid == id && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, msgDirReq, 1, []byte("hello"))
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := readFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	hdr := make([]byte, frameHeader)
	wireLE.PutUint32(hdr, 1<<30) // absurd length word
	if _, _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameGarbage(t *testing.T) {
	// Random bytes must never panic; errors are fine.
	f := func(junk []byte) bool {
		readFrame(bytes.NewReader(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDirRespRoundTripQuick(t *testing.T) {
	f := func(names []string) bool {
		// Wire strings are u16-length-prefixed.
		for i, n := range names {
			if len(n) > 60000 {
				names[i] = n[:60000]
			}
		}
		enc, err := encodeDirResp(names)
		if err != nil {
			return false
		}
		got, err := decodeDirResp(enc)
		if err != nil {
			return false
		}
		if len(got) != len(names) {
			return false
		}
		for i := range names {
			if got[i] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDirRespGarbage(t *testing.T) {
	f := func(junk []byte) bool {
		decodeDirResp(junk) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// errWriter fails after n bytes, exercising writeFrame's error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteFrameErrors(t *testing.T) {
	if err := writeFrame(&errWriter{n: 2}, 1, 1, []byte("x")); err == nil {
		t.Error("header write error swallowed")
	}
	if err := writeFrame(&errWriter{n: frameHeader}, 1, 1, []byte("x")); err == nil {
		t.Error("payload write error swallowed")
	}
}

// TestAppendStringTooLong is the regression test for the silent u16
// truncation bug: a name of 64 KiB or more used to encode a wrapped length
// prefix and corrupt every field after it. It must be refused outright.
func TestAppendStringTooLong(t *testing.T) {
	long := strings.Repeat("x", maxWireString+1)
	if _, err := appendString(nil, long); err != errStringTooLong {
		t.Fatalf("oversized string: err = %v, want errStringTooLong", err)
	}
	// The boundary length still round-trips.
	edge := strings.Repeat("y", maxWireString)
	b, err := appendString(nil, edge)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readString(b, 0)
	if err != nil || got != edge {
		t.Fatalf("boundary string corrupted: len=%d err=%v", len(got), err)
	}
	// Encoders that carry names refuse rather than truncate.
	if _, err := encodeDirResp([]string{"ok", long}); err == nil {
		t.Error("encodeDirResp accepted an oversized name")
	}
}
