package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
)

// TestParseNeverPanics mutates a valid container thousands of ways;
// Parse must either reject the input or return a structurally valid
// VBS — and never panic. A reconfiguration controller faces exactly
// this input channel.
func TestParseNeverPanics(t *testing.T) {
	f := runFlow(t, 40, 20, 5, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		data := append([]byte(nil), good...)
		switch trial % 4 {
		case 0: // single byte flip
			data[rng.Intn(len(data))] ^= byte(1 << uint(rng.Intn(8)))
		case 1: // truncation
			data = data[:rng.Intn(len(data))]
		case 2: // multiple flips
			for k := 0; k < 4; k++ {
				data[rng.Intn(len(data))] ^= byte(rng.Intn(256))
			}
		case 3: // garbage tail
			data = append(data[:rng.Intn(len(data))], make([]byte, rng.Intn(64))...)
		}
		parsed, err := Parse(data)
		if err != nil {
			continue
		}
		if vErr := parsed.Validate(); vErr != nil {
			t.Fatalf("trial %d: Parse accepted container failing Validate: %v", trial, vErr)
		}
	}
}

// TestDecodeNeverPanicsOnParsedMutants goes one step further: whatever
// Parse accepts must either decode or error cleanly.
func TestDecodeNeverPanicsOnParsedMutants(t *testing.T) {
	f := runFlow(t, 41, 15, 5, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	decoded := 0
	for trial := 0; trial < 800; trial++ {
		data := append([]byte(nil), good...)
		data[rng.Intn(len(data))] ^= byte(1 << uint(rng.Intn(8)))
		parsed, err := Parse(data)
		if err != nil {
			continue
		}
		if _, err := parsed.Decode(1); err == nil {
			decoded++
		}
	}
	// Most single-bit flips that survive parsing should still decode
	// (they land in logic payloads); the point is only that nothing
	// panicked.
	t.Logf("%d mutants decoded cleanly", decoded)
}

// TestEncodeIsDeterministic: identical inputs must produce identical
// containers; the runtime depends on decode determinism and the
// feedback loop on encode determinism.
func TestEncodeIsDeterministic(t *testing.T) {
	f := runFlow(t, 42, 25, 6, 8, 6)
	var prev []byte
	for i := 0; i < 3; i++ {
		v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
		if err != nil {
			t.Fatal(err)
		}
		data, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && string(prev) != string(data) {
			t.Fatal("two encodes of the same routing differ")
		}
		prev = data
	}
}

// TestDecodeIdempotent: decoding the same VBS twice into blank fabrics
// yields identical bits (the de-virtualization router is stateless
// across runs).
func TestDecodeIdempotent(t *testing.T) {
	f := runFlow(t, 43, 20, 5, 8, 6)
	for _, cluster := range []int{1, 3} {
		v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		a, err := v.Decode(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := v.Decode(1)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("cluster %d: two decodes differ", cluster)
		}
	}
}

// TestRawFallbackOnlyVBS: force every region raw (reorder disabled,
// reservation useless) by using MaxReorder=1 on a congested task and
// check the format still round-trips and verifies. Exercises the raw
// path end to end.
func TestRawFallbackPathRoundTrip(t *testing.T) {
	f := runFlow(t, 44, 30, 6, 8, 6)
	v, stats, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 4, MaxReorder: 1, DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := back.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bitstream.Verify(decoded, f.d, f.pl, f.gr); err != nil {
		t.Fatal(err)
	}
	t.Logf("raw fallbacks: %d of %d used regions", stats.RawRegions, stats.UsedRegions)
}
