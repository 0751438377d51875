package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestFrameRoundTrip drives every flag/type/compression combination
// over payloads from empty to max, asserting byte-exact decode.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const maxPayload = 1 << 20
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 64),     // compressible, above flateMin
		make([]byte, flateMin-1),            // below the compression floor
		randBytes(rng, 4096),                // incompressible
		bytes.Repeat([]byte{0}, maxPayload), // max-size, highly compressible
		randBytes(rng, maxPayload),          // max-size, incompressible
		append(randBytes(rng, 100), make([]byte, 900)...), // mixed
	}
	types := []byte{FrameData, FrameAck, FrameReq, FrameResp}
	for _, typ := range types {
		for _, raw := range []bool{false, true} {
			for _, compress := range []bool{false, true} {
				for pi, payload := range payloads {
					var flags byte
					if raw {
						flags = FlagRaw
					}
					in := Frame{Type: typ, Flags: flags, Seq: rng.Uint64(), Payload: payload}
					var buf bytes.Buffer
					n, compressed, err := WriteFrame(&buf, in, compress)
					if err != nil {
						t.Fatalf("type %d raw %v compress %v payload %d: write: %v", typ, raw, compress, pi, err)
					}
					if n != buf.Len() {
						t.Fatalf("write reported %d bytes, buffered %d", n, buf.Len())
					}
					if compressed && raw {
						t.Fatalf("raw payload left compressed")
					}
					out, rn, err := ReadFrame(&buf, maxPayload)
					if err != nil {
						t.Fatalf("type %d raw %v compress %v payload %d: read: %v", typ, raw, compress, pi, err)
					}
					if rn != n {
						t.Fatalf("read consumed %d bytes, wrote %d", rn, n)
					}
					if out.Type != in.Type || out.Seq != in.Seq {
						t.Fatalf("header mismatch: got %+v want %+v", out, in)
					}
					if out.Flags&FlagFlate != 0 {
						t.Fatalf("FlagFlate leaked through decode")
					}
					if (out.Flags&FlagRaw != 0) != raw {
						t.Fatalf("FlagRaw did not round-trip")
					}
					if !bytes.Equal(out.Payload, payload) {
						t.Fatalf("payload mismatch: got %d bytes want %d", len(out.Payload), len(payload))
					}
				}
			}
		}
	}
}

// TestFrameCompressionShrinks pins the point of the flate flag: a
// compressible payload ships smaller, a raw-flagged one verbatim.
func TestFrameCompressionShrinks(t *testing.T) {
	payload := bytes.Repeat([]byte("virtual bitstream "), 1024)
	var plain, packed bytes.Buffer
	pn, _, err := WriteFrame(&plain, Frame{Type: FrameData, Payload: payload}, false)
	if err != nil {
		t.Fatal(err)
	}
	cn, compressed, err := WriteFrame(&packed, Frame{Type: FrameData, Payload: payload}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !compressed || cn >= pn {
		t.Fatalf("compression did not shrink: plain %d, compressed %d (flag %v)", pn, cn, compressed)
	}
	raw := bytes.Buffer{}
	rn, compressedRaw, err := WriteFrame(&raw, Frame{Type: FrameData, Flags: FlagRaw, Payload: payload}, true)
	if err != nil {
		t.Fatal(err)
	}
	if compressedRaw || rn != pn {
		t.Fatalf("raw payload was recompressed: %d bytes, flag %v", rn, compressedRaw)
	}
}

func TestReadFrameRejects(t *testing.T) {
	good := encodeFrame(t, Frame{Type: FrameData, Seq: 3, Payload: []byte("hello world, this is a frame")})

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] ^= 0xff
		_, _, err := ReadFrame(bytes.NewReader(b), 0)
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[4] = Version + 1
		_, _, err := ReadFrame(bytes.NewReader(b), 0)
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("payload corruption", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)-1] ^= 0x01
		_, _, err := ReadFrame(bytes.NewReader(b), 0)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("oversize", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good), 4)
		if !errors.Is(err, ErrOversize) {
			t.Fatalf("got %v, want ErrOversize", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good[:HeaderSize-3]), 0)
		if err == nil {
			t.Fatal("truncated header decoded")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good[:len(good)-5]), 0)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("corrupt flate stream with valid crc", func(t *testing.T) {
		// Garbage that claims to be compressed but passes the CRC: the
		// checksum covers the wire bytes, so the inflate must fail
		// cleanly, not panic.
		wire := []byte("definitely not a flate stream")
		var hdr [HeaderSize]byte
		binary.BigEndian.PutUint32(hdr[0:4], Magic)
		hdr[4] = Version
		hdr[5] = FrameData
		hdr[6] = FlagFlate
		binary.BigEndian.PutUint32(hdr[16:20], uint32(len(wire)))
		binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(wire, castagnoli))
		_, _, err := ReadFrame(bytes.NewReader(append(hdr[:], wire...)), 0)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
}

// TestInflatePoolReuse decodes alternating large, small and oversize
// flate frames, so every decode after the first runs on a pooled
// decompressor that the previous frame left finished, short or
// errored: each must return the exact bytes, and the decoded-size
// bound must still reject after a reuse.
func TestInflatePoolReuse(t *testing.T) {
	const maxPayload = 64 << 10
	rng := rand.New(rand.NewSource(11))
	large := append(bytes.Repeat([]byte("virtual bitstream "), 3000), randBytes(rng, 4096)...)
	small := bytes.Repeat([]byte("vbs"), flateMin)
	oversize := make([]byte, maxPayload+1)
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if _, compressed, err := WriteFrame(&buf, Frame{Type: FrameReq, Payload: payload}, true); err != nil || !compressed {
			t.Fatalf("%d-byte payload: compressed %v, err %v", len(payload), compressed, err)
		}
		return buf.Bytes()
	}
	wires := map[string][]byte{"large": frame(large), "small": frame(small), "oversize": frame(oversize)}
	for round := 0; round < 4; round++ {
		for _, c := range []struct {
			name string
			want []byte
		}{{"large", large}, {"small", small}, {"oversize", nil}} {
			got, _, err := ReadFrame(bytes.NewReader(wires[c.name]), maxPayload)
			if c.want == nil {
				if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "decoded payload exceeds 65536 bytes") {
					t.Fatalf("round %d: oversize frame: got %v, want the decoded-size bound", round, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d: %s frame: %v", round, c.name, err)
			}
			if !bytes.Equal(got.Payload, c.want) {
				t.Fatalf("round %d: %s frame decoded to different bytes", round, c.name)
			}
		}
	}
}

// TestFrameStreamSequence decodes several concatenated frames from one
// reader — the on-wire shape a stream actually produces.
func TestFrameStreamSequence(t *testing.T) {
	var buf bytes.Buffer
	var want []Frame
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		f := Frame{Type: FrameData, Seq: uint64(i + 1), Payload: randBytes(rng, rng.Intn(2048))}
		if i%3 == 0 {
			f.Flags = FlagRaw
		}
		want = append(want, f)
		if _, _, err := WriteFrame(&buf, f, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, _, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != w.Seq || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d did not round-trip", i)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("trailing read: got %v, want EOF", err)
	}
}

func TestObjPutRoundTrip(t *testing.T) {
	var d [DigestLen]byte
	for i := range d {
		d[i] = byte(i * 7)
	}
	blob := []byte("lzss'd container bytes")
	for _, force := range []bool{false, true} {
		msg := EncodeObjPut(d, force, blob)
		if MsgKind(msg) != MsgObjPut {
			t.Fatalf("kind = %d", MsgKind(msg))
		}
		gd, gf, gb, err := DecodeObjPut(msg)
		if err != nil {
			t.Fatal(err)
		}
		if gd != d || gf != force || !bytes.Equal(gb, blob) {
			t.Fatalf("objput did not round-trip (force=%v)", force)
		}
	}
	if _, _, _, err := DecodeObjPut([]byte{MsgObjPut, 0}); err == nil {
		t.Fatal("short objput decoded")
	}
	if _, _, _, err := DecodeObjPut(EncodeMsg(MsgBatch, []byte("{}"))); err == nil {
		t.Fatal("wrong-kind objput decoded")
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, status := range []int{200, 201, 409, 410, 500} {
		body := []byte(`{"ok":true}`)
		status2, got, err := DecodeResult(EncodeResult(status, body))
		if err != nil {
			t.Fatal(err)
		}
		if status2 != status || !bytes.Equal(got, body) {
			t.Fatalf("result did not round-trip for %d", status)
		}
	}
	if _, _, err := DecodeResult([]byte{9}); err == nil {
		t.Fatal("short result decoded")
	}
}

func encodeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := WriteFrame(&buf, f, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
