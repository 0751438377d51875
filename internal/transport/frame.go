// Package transport is the intra-cluster streaming data plane: a
// length-prefixed frame codec over long-lived TCP connections,
// upgraded out of the daemons' existing HTTP listeners. The gateway
// keeps one persistent stream per node and moves blob replication,
// repair copies and batched task loads over it instead of paying one
// HTTP round trip per operation (aistore's transport package is the
// model: streams with send-side batching and optional compression).
//
// The wire unit is a frame:
//
//	offset  size  field
//	0       4     magic 0x56425346 ("VBSF")
//	4       1     version (1)
//	5       1     type (data | ack | req | resp)
//	6       1     flags (flate-compressed, raw-passthrough)
//	7       1     reserved (0)
//	8       8     sequence number
//	16      4     payload length on the wire
//	20      4     CRC32C (Castagnoli) of the wire payload
//	24      ...   payload
//
// Data frames are fire-and-forget messages acknowledged cumulatively
// by ack frames (the receiver acks the highest data sequence it has
// processed; the sender holds unacked frames for retransmission after
// a reconnect). Req frames are RPCs answered by a resp frame carrying
// the same sequence number. Payloads may be flate-compressed per
// frame, and the choice belongs to the message kind: a message whose
// bytes are dominated by already-compressed VBS containers sets
// FlagRaw and ships verbatim — MsgObjPut (one LZSS blob) and MsgBatch
// in both directions (base64'd containers in a JSON envelope).
// Containers stay compressed end to end, the paper's design point
// carried across the wire; flate remains for small control envelopes
// only.
package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Magic opens every frame: "VBSF" big-endian.
const Magic uint32 = 0x56425346

// Version is the frame-format version this codec speaks.
const Version byte = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 24

// DefaultMaxPayload bounds a frame's decoded payload (matches the
// daemons' 64 MiB HTTP body bound, with headroom for batch envelopes).
const DefaultMaxPayload = 96 << 20

// Frame flags.
const (
	// FlagFlate marks the wire payload as flate-compressed; the codec
	// sets and clears it transparently.
	FlagFlate byte = 1 << 0
	// FlagRaw marks a payload that is already compressed upstream
	// (LZSS'd VBS containers): the codec ships it verbatim and never
	// re-compresses it.
	FlagRaw byte = 1 << 1
)

// Frame types.
const (
	// FrameData is a fire-and-forget message, cumulatively acked.
	FrameData byte = 1
	// FrameAck acknowledges every data frame with Seq <= its Seq.
	FrameAck byte = 2
	// FrameReq is an RPC request; a FrameResp with the same Seq
	// answers it.
	FrameReq byte = 3
	// FrameResp answers a FrameReq.
	FrameResp byte = 4
)

// Codec error sentinels; a decoder fed garbage returns one of these
// (wrapped), never panics.
var (
	ErrBadMagic   = errors.New("transport: bad frame magic")
	ErrBadVersion = errors.New("transport: unsupported frame version")
	ErrChecksum   = errors.New("transport: frame payload checksum mismatch")
	ErrOversize   = errors.New("transport: frame payload exceeds limit")
	ErrBadFrame   = errors.New("transport: malformed frame")
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// flateMin is the smallest payload worth attempting to compress:
// below it the flate header overhead wins.
const flateMin = 128

var flateWriters = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// flateReaders pools decompressors; every flate.NewReader result is
// also a flate.Resetter, so a pooled one is re-aimed per frame.
var flateReaders = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// Frame is one decoded protocol unit. After ReadFrame, Payload holds
// the decoded (decompressed) bytes and FlagFlate is cleared; FlagRaw
// survives the round trip.
type Frame struct {
	Type    byte
	Flags   byte
	Seq     uint64
	Payload []byte
}

// WriteFrame encodes f onto w, optionally flate-compressing the
// payload (skipped for FlagRaw payloads and when compression does not
// shrink). It returns the number of wire bytes written and whether
// the payload left compressed.
func WriteFrame(w io.Writer, f Frame, compress bool) (int, bool, error) {
	wire := f.Payload
	flags := f.Flags &^ FlagFlate
	if compress && flags&FlagRaw == 0 && len(f.Payload) >= flateMin {
		if c, ok := deflate(f.Payload); ok {
			wire = c
			flags |= FlagFlate
		}
	}
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = Version
	hdr[5] = f.Type
	hdr[6] = flags
	hdr[7] = 0
	binary.BigEndian.PutUint64(hdr[8:16], f.Seq)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(wire)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(wire, castagnoli))
	compressed := flags&FlagFlate != 0
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, compressed, err
	}
	n, err := w.Write(wire)
	return HeaderSize + n, compressed, err
}

// deflate compresses p with flate at BestSpeed, reporting whether the
// result is actually smaller.
func deflate(p []byte) ([]byte, bool) {
	var buf bytes.Buffer
	buf.Grow(len(p) / 2)
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(&buf)
	_, err := fw.Write(p)
	if cerr := fw.Close(); err == nil {
		err = cerr
	}
	flateWriters.Put(fw)
	if err != nil || buf.Len() >= len(p) {
		return nil, false
	}
	return buf.Bytes(), true
}

// ReadFrame decodes one frame from r, rejecting payloads larger than
// maxPayload (0 selects DefaultMaxPayload) before buffering them and
// verifying the CRC before decompressing. The returned count is wire
// bytes consumed. Any malformed input yields an error, never a panic.
func ReadFrame(r io.Reader, maxPayload int) (Frame, int, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if m := binary.BigEndian.Uint32(hdr[0:4]); m != Magic {
		return Frame{}, HeaderSize, fmt.Errorf("%w: 0x%08x", ErrBadMagic, m)
	}
	if hdr[4] != Version {
		return Frame{}, HeaderSize, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	f := Frame{Type: hdr[5], Flags: hdr[6], Seq: binary.BigEndian.Uint64(hdr[8:16])}
	length := binary.BigEndian.Uint32(hdr[16:20])
	if length > uint32(maxPayload) {
		return Frame{}, HeaderSize, fmt.Errorf("%w: %d > %d", ErrOversize, length, maxPayload)
	}
	wire := make([]byte, length)
	if _, err := io.ReadFull(r, wire); err != nil {
		// Truncated mid-payload: report how much was consumed.
		return Frame{}, HeaderSize, fmt.Errorf("%w: short payload: %w", ErrBadFrame, err)
	}
	n := HeaderSize + int(length)
	if got := crc32.Checksum(wire, castagnoli); got != binary.BigEndian.Uint32(hdr[20:24]) {
		return Frame{}, n, fmt.Errorf("%w: seq %d", ErrChecksum, f.Seq)
	}
	if f.Flags&FlagFlate != 0 {
		dec, err := inflate(wire, maxPayload)
		if err != nil {
			return Frame{}, n, fmt.Errorf("%w: inflate: %w", ErrBadFrame, err)
		}
		f.Flags &^= FlagFlate
		f.Payload = dec
		return f, n, nil
	}
	f.Payload = wire
	return f, n, nil
}

// inflate decompresses a flate payload, bounding the decoded size so
// a hostile frame cannot balloon memory.
func inflate(p []byte, max int) ([]byte, error) {
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	// Reset re-arms a reader left mid-stream or errored by its last frame.
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(p), nil); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(fr, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if n > int64(max) {
		return nil, fmt.Errorf("decoded payload exceeds %d bytes", max)
	}
	return buf.Bytes(), nil
}
