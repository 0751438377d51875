package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte) []byte {
	t.Helper()
	c := CompressLZSS(data)
	d, err := DecompressLZSS(c)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(d, data) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(d))
	}
	return c
}

func TestEmpty(t *testing.T) {
	c := roundTrip(t, nil)
	if len(c) != 1 {
		t.Errorf("empty input compresses to %d bytes", len(c))
	}
}

func TestLiteralOnly(t *testing.T) {
	roundTrip(t, []byte{1})
	roundTrip(t, []byte{1, 2})
	roundTrip(t, []byte("ab"))
}

func TestRepetitiveCompresses(t *testing.T) {
	data := bytes.Repeat([]byte{0x00}, 4096)
	c := roundTrip(t, data)
	if len(c) >= len(data)/4 {
		t.Errorf("zeros: %d -> %d, expected strong compression", len(data), len(c))
	}
	data2 := bytes.Repeat([]byte("abcdef"), 700)
	c2 := roundTrip(t, data2)
	if len(c2) >= len(data2)/4 {
		t.Errorf("pattern: %d -> %d", len(data2), len(c2))
	}
}

func TestRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 8192)
	rng.Read(data)
	c := roundTrip(t, data)
	// Random data should grow only by the flag overhead (~12.5%).
	if len(c) > len(data)+len(data)/7+16 {
		t.Errorf("random data expanded too much: %d -> %d", len(data), len(c))
	}
}

func TestLongMatchAcrossWindow(t *testing.T) {
	// A match candidate farther than the window must not be used.
	var data []byte
	data = append(data, bytes.Repeat([]byte("xyz~"), 16)...) // pattern early
	data = append(data, make([]byte, windowSize+100)...)     // push out of window
	data = append(data, bytes.Repeat([]byte("xyz~"), 16)...) // pattern again
	roundTrip(t, data)
}

func TestOverlappingMatch(t *testing.T) {
	// RLE-style overlapping references (offset < length).
	data := append([]byte{7}, bytes.Repeat([]byte{7}, 100)...)
	roundTrip(t, data)
}

func TestDecompressErrors(t *testing.T) {
	good := CompressLZSS([]byte("hello hello hello hello"))
	cases := [][]byte{
		nil,
		good[:1],
		good[:len(good)-1],
	}
	for i, c := range cases {
		if _, err := DecompressLZSS(c); err == nil {
			t.Errorf("case %d: truncated input accepted", i)
		}
	}
	// Back-reference before start of output.
	bad := []byte{4, 0x01, 0x0f, 0xff}
	if _, err := DecompressLZSS(bad); err == nil {
		t.Error("invalid back-reference accepted")
	}
}

// TestRatio pins the LZSS baseline's two ends: a long run compresses
// below a quarter, random bytes expand slightly.
func TestRatio(t *testing.T) {
	ratio := func(data []byte) float64 {
		return float64(len(CompressLZSS(data))) / float64(len(data))
	}
	zeros := ratio(bytes.Repeat([]byte{0}, 4096))
	if zeros >= 0.25 {
		t.Errorf("zeros ratio %.3f too high", zeros)
	}
	rng := rand.New(rand.NewSource(2))
	rnd := make([]byte, 4096)
	rng.Read(rnd)
	if ratio(rnd) <= 1.0 {
		t.Error("random data should expand slightly")
	}
}

// Property: compress/decompress is the identity for arbitrary inputs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		c := CompressLZSS(data)
		d, err := DecompressLZSS(c)
		return err == nil && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: structured data (few distinct bytes, runs) always shrinks.
func TestQuickStructuredShrinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2048)
		b := byte(0)
		for i := range data {
			if rng.Intn(8) == 0 {
				b = byte(rng.Intn(4))
			}
			data[i] = b
		}
		return len(CompressLZSS(data)) < len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1<<16)
	v := byte(0)
	for i := range data {
		if rng.Intn(16) == 0 {
			v = byte(rng.Intn(8))
		}
		data[i] = v
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressLZSS(data)
	}
}

func BenchmarkDecompress(b *testing.B) {
	data := bytes.Repeat([]byte("configuration bitstream "), 3000)
	c := CompressLZSS(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressLZSS(c); err != nil {
			b.Fatal(err)
		}
	}
}
