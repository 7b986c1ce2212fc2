package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Wire framing shared by the sock and rdma transports:
//
//	u32 payload length | u8 message type | u64 request id | payload
//
// The top bit of the message type (compressFlag) marks a deflate-compressed
// payload; the low 7 bits are the message type proper.
//
// Request/response payloads:
//
//	dirReq          (empty)
//	dirResp         u32 count, then count length-prefixed names
//	lookupReq       length-prefixed instance name
//	lookupResp      u32 set handle, then metadata chunk bytes
//	updateReq       u32 set handle
//	updateResp      trace prefix, then data chunk bytes
//	errResp         length-prefixed message
const (
	msgDirReq = iota + 1
	msgDirResp
	msgLookupReq
	msgLookupResp
	msgUpdateReq
	msgUpdateResp
	msgErrResp
)

// maxFrame bounds a frame payload; metric sets are tens of kB, so 16 MB is
// generous and protects against corrupt length words.
const maxFrame = 16 << 20

const frameHeader = 4 + 1 + 8

var wireLE = binary.LittleEndian

// Frame buffer free lists. Aggregation pulls move one data chunk per
// request at a steady rate, so without recycling the hot path allocates a
// chunk-sized buffer per update on each half of the connection. Channel
// free lists (rather than sync.Pool) keep Get/Put allocation-free for the
// []byte values.
//
// Buffers are split into two size classes so the small, very hot request
// frames (update requests are 4–13 bytes) never contend with chunk-sized
// response buffers, and the total pooled bytes are capped: with 10k
// connections a single count-bounded list either thrashes (too small) or
// pins worst-case-sized buffers forever (too large). Oversized one-off
// buffers are never pooled at all.
const (
	bufClassSmall  = 4 << 10  // boundary between the two free lists
	bufPoolMaxItem = 1 << 20  // buffers above this are never pooled
	bufPoolBytes   = 12 << 20 // cap on total pooled bytes across both lists
)

var (
	bufFreeSmall = make(chan []byte, 1024)
	bufFreeLarge = make(chan []byte, 256)
	bufPooled    atomic.Int64 // bytes currently parked in the free lists
)

// getBuf returns a length-n buffer, reusing a recycled one when its
// capacity suffices.
func getBuf(n int) []byte {
	free := bufFreeSmall
	if n > bufClassSmall {
		free = bufFreeLarge
	}
	select {
	case b := <-free:
		bufPooled.Add(-int64(cap(b)))
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// putBuf recycles a buffer obtained from getBuf (or any buffer the caller
// has finished with). Callers must not retain references into b afterward.
func putBuf(b []byte) {
	c := cap(b)
	if c == 0 || c > bufPoolMaxItem {
		return
	}
	if bufPooled.Load()+int64(c) > bufPoolBytes {
		return
	}
	free := bufFreeSmall
	if c > bufClassSmall {
		free = bufFreeLarge
	}
	select {
	case free <- b[:0]:
		bufPooled.Add(int64(c))
	default:
	}
}

// growTo extends b to length n, reallocating through the buffer pool
// when its capacity falls short (the original is recycled).
func growTo(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := getBuf(n)
	copy(nb, b)
	putBuf(b)
	return nb
}

// writeFrame sends one frame. Callers serialize access to w.
func writeFrame(w io.Writer, typ byte, reqID uint64, payload []byte) error {
	var hdr [frameHeader]byte
	wireLE.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = typ
	wireLE.PutUint64(hdr[5:], reqID)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// frameReadChunk is the largest buffer readFrame allocates before any
// payload bytes have actually arrived. Larger frames grow the buffer as
// data lands, so a corrupt or hostile length word cannot force a
// worst-case allocation up front.
const frameReadChunk = 64 << 10

// readPayload reads exactly n payload bytes, growing the buffer in chunks
// for large frames. On error the partially filled buffer is recycled.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= frameReadChunk {
		b := getBuf(n)
		if _, err := io.ReadFull(r, b); err != nil {
			putBuf(b)
			return nil, err
		}
		return b, nil
	}
	b := getBuf(frameReadChunk)
	filled := 0
	for filled < n {
		if filled == len(b) {
			grow := len(b) * 2
			if grow > n {
				grow = n
			}
			nb := getBuf(grow)
			copy(nb, b[:filled])
			putBuf(b)
			b = nb
		}
		m, err := io.ReadFull(r, b[filled:])
		filled += m
		if err != nil {
			putBuf(b)
			return nil, err
		}
	}
	return b, nil
}

// readFrame receives one frame. The returned type still carries the
// compression flag, if any; callers pass it through maybeInflate before
// dispatching.
func readFrame(r io.Reader) (typ byte, reqID uint64, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := wireLE.Uint32(hdr[0:])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	typ = hdr[4]
	reqID = wireLE.Uint64(hdr[5:])
	if n > 0 {
		// Recycled via putBuf once the payload is consumed (request payloads
		// after dispatch, update response payloads after the copy to dst).
		if payload, err = readPayload(r, int(n)); err != nil {
			return 0, 0, nil, err
		}
	}
	return typ, reqID, payload, nil
}

// maxWireString bounds u16 length-prefixed strings. Longer names used to
// truncate the length prefix silently and corrupt the rest of the frame.
const maxWireString = 1<<16 - 1

// errStringTooLong reports a name too large for the u16 wire encoding.
var errStringTooLong = errors.New("transport: string exceeds 64 KiB wire limit")

// appendString appends a u16 length-prefixed string. Strings beyond the
// u16 range are an error: encoding them would corrupt the frame.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxWireString {
		return b, errStringTooLong
	}
	b = wireLE.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// clipString truncates s to the wire string limit, for contexts (error
// messages) where clipping beats failing.
func clipString(s string) string {
	if len(s) > maxWireString {
		return s[:maxWireString]
	}
	return s
}

// readString decodes a u16 length-prefixed string at pos.
func readString(b []byte, pos int) (string, int, error) {
	if pos+2 > len(b) {
		return "", 0, fmt.Errorf("transport: truncated string length")
	}
	n := int(wireLE.Uint16(b[pos:]))
	if pos+2+n > len(b) {
		return "", 0, fmt.Errorf("transport: truncated string")
	}
	return string(b[pos+2 : pos+2+n]), pos + 2 + n, nil
}

// encodeDirResp serializes a name list.
func encodeDirResp(names []string) ([]byte, error) {
	b := wireLE.AppendUint32(nil, uint32(len(names)))
	var err error
	for _, n := range names {
		if b, err = appendString(b, n); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeDirResp parses a name list.
func decodeDirResp(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: short dir response")
	}
	count := int(wireLE.Uint32(b))
	// Each name costs at least its 2-byte length prefix; a count beyond
	// that is a corrupt or hostile frame (and must not drive allocation).
	if count > (len(b)-4)/2 {
		return nil, fmt.Errorf("transport: dir response claims %d names in %d bytes", count, len(b))
	}
	names := make([]string, 0, count)
	pos := 4
	for i := 0; i < count; i++ {
		s, next, err := readString(b, pos)
		if err != nil {
			return nil, err
		}
		names = append(names, s)
		pos = next
	}
	return names, nil
}

// msgHello announces the dialing peer's name for reversed-direction pulls
// (connection initiation from either side, §IV-B).
const msgHello = msgErrResp + 1

// msgDirGenReq/msgDirGenResp poll the peer registry's directory generation
// (a u64 counter bumped on set add/remove). Tiered aggregators check it once
// per pass and only re-fetch the full directory when it moved, so membership
// changes propagate one pull interval per hop without per-pass dir traffic.
//
//	dirGenReq   (empty)
//	dirGenResp  u64 generation
const (
	msgDirGenReq  = msgHello + 1
	msgDirGenResp = msgHello + 2
)

// Delta update messages:
//
//	deltaUpdateReq   u32 set handle | u64 base DGN the requester holds
//	deltaUpdateResp  trace prefix, u8 kind, then a full data chunk (kind 0)
//	                 or a delta update payload (kind 1, decoded by
//	                 metric.ApplyDelta)
const (
	msgDeltaUpdateReq  = msgDirGenResp + 1
	msgDeltaUpdateResp = msgDirGenResp + 2
)

// Delta update response kinds.
const (
	deltaKindFull  = 0 // payload is a full data chunk (server fell back)
	deltaKindDelta = 1 // payload is a metric delta update
)

// Trace blocks. Every update and delta-update response payload is
// prefixed with
//
//	u16 trace length | trace block ("TRC1", see obs.AppendHops)
//
// followed by the data chunk or delta payload. The block rides in front —
// not behind — because delta payloads are validated to their exact length
// by metric.ApplyDelta, so trailing bytes would be rejected. A zero trace
// length is valid (the server has no hop chain for the set).
const traceLenPrefix = 2

// traceSlack is the buffer headroom reserved for a trace block ahead of a
// data chunk: obs.MaxTraceHops hops of worst-case realistic names stay
// well inside it, and Server.appendTraceFor drops oversized blocks.
const traceSlack = 2048

// splitTracePrefix slices a trace-prefixed payload into its trace block
// and the payload bytes after it.
func splitTracePrefix(b []byte) (trace, rest []byte, err error) {
	if len(b) < traceLenPrefix {
		return nil, nil, errBadTracePrefix
	}
	n := int(wireLE.Uint16(b))
	if traceLenPrefix+n > len(b) {
		return nil, nil, errBadTracePrefix
	}
	return b[traceLenPrefix : traceLenPrefix+n], b[traceLenPrefix+n:], nil
}

var errBadTracePrefix = errors.New("transport: malformed trace prefix")

// Frame compression. Either side may set the top bit of the message type;
// the payload is then
//
//	u32 raw length | deflate stream
//
// Compression is applied per frame, only when the raw payload clears
// compressMin (tiny frames inflate under deflate's block overhead) and only
// when deflate actually wins; the receiver inflates whenever the bit is
// set, so the sender stays free to skip compression frame by frame.
const (
	compressFlag = 0x80
	compressMin  = 512
)

// frameDeflater is a per-connection compressor; callers serialize access
// (senders already hold the connection write lock).
type frameDeflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// compress returns the compressed form of payload and true, or payload
// unchanged and false when compression would not shrink it. The returned
// slice aliases the deflater's scratch buffer and is only valid until the
// next call.
func (d *frameDeflater) compress(payload []byte) ([]byte, bool) {
	if len(payload) < compressMin {
		return payload, false
	}
	d.buf.Reset()
	var hdr [4]byte
	wireLE.PutUint32(hdr[:], uint32(len(payload)))
	d.buf.Write(hdr[:])
	if d.fw == nil {
		d.fw, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
	} else {
		d.fw.Reset(&d.buf)
	}
	if _, err := d.fw.Write(payload); err != nil {
		return payload, false
	}
	if err := d.fw.Close(); err != nil {
		return payload, false
	}
	if d.buf.Len() >= len(payload) {
		return payload, false
	}
	return d.buf.Bytes(), true
}

// frameInflater pools decompressors; flate readers carry ~40 kB of window
// state worth reusing across frames and connections.
type frameInflater struct {
	br bytes.Reader
	fr io.ReadCloser
}

var inflaterPool = sync.Pool{New: func() any { return new(frameInflater) }}

var errBadCompressedFrame = errors.New("transport: malformed compressed frame")

// maybeInflate strips the compression flag, inflating the payload when it
// is set. The compressed payload is recycled; the returned payload comes
// from the frame buffer pool either way.
func maybeInflate(typ byte, payload []byte) (byte, []byte, error) {
	if typ&compressFlag == 0 {
		return typ, payload, nil
	}
	typ &^= compressFlag
	if len(payload) < 4 {
		putBuf(payload)
		return 0, nil, errBadCompressedFrame
	}
	rawLen := wireLE.Uint32(payload)
	if rawLen > maxFrame {
		putBuf(payload)
		return 0, nil, errBadCompressedFrame
	}
	fi := inflaterPool.Get().(*frameInflater)
	fi.br.Reset(payload[4:])
	if fi.fr == nil {
		fi.fr = flate.NewReader(&fi.br)
	} else if err := fi.fr.(flate.Resetter).Reset(&fi.br, nil); err != nil {
		putBuf(payload)
		inflaterPool.Put(fi)
		return 0, nil, err
	}
	out, err := readPayload(fi.fr, int(rawLen))
	if err == nil {
		// The stream must end exactly at rawLen.
		var one [1]byte
		if n, _ := fi.fr.Read(one[:]); n != 0 {
			putBuf(out)
			out, err = nil, errBadCompressedFrame
		}
	}
	putBuf(payload)
	inflaterPool.Put(fi)
	if err != nil {
		return 0, nil, errBadCompressedFrame
	}
	return typ, out, nil
}
