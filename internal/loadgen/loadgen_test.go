package loadgen

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

func TestGenTaskDeterministicAndDecodable(t *testing.T) {
	a, err := GenTask(7, 12, 6)
	if err != nil {
		t.Fatalf("GenTask: %v", err)
	}
	b, err := GenTask(7, 12, 6)
	if err != nil {
		t.Fatalf("GenTask (repeat): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different containers")
	}
	c, err := GenTask(8, 12, 6)
	if err != nil {
		t.Fatalf("GenTask (seed 8): %v", err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical containers")
	}
	v, err := core.Parse(a)
	if err != nil {
		t.Fatalf("generated container does not parse: %v", err)
	}
	if _, err := v.Decode(1); err != nil {
		t.Fatalf("generated container does not decode: %v", err)
	}
}
