package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/bitstream"
)

// compile runs the offline flow on a tiny BLIF design and returns the
// compiled artifacts.
func compile(t *testing.T) *repro.Compiled {
	t.Helper()
	const blif = `.model t
.inputs a b c
.outputs z y
.names a b n1
11 1
.names n1 c z
10 1
.latch z y re clk 0
.end
`
	f := repro.NewFlow()
	f.W = 10
	f.PlaceEffort = 1
	c, err := f.CompileBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoundTrip generates a VBS, decodes it through the CLI, and
// checks the emitted raw bitstream is electrically equivalent to the
// design (decode may choose different interior wires than the offline
// router, so equivalence — not bit equality — is the contract).
func TestRoundTrip(t *testing.T) {
	c := compile(t)
	dir := t.TempDir()
	vbsPath := filepath.Join(dir, "t.vbs")
	rawPath := filepath.Join(dir, "t.rbs")
	container, err := c.VBS.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vbsPath, container, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-in", vbsPath, "-o", rawPath}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"task    :", "VBS     :", "decoded :", "wrote   :"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	data, err := os.ReadFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := bitstream.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.G != c.Grid {
		t.Errorf("decoded grid %v, want %v", decoded.G, c.Grid)
	}
	// The CLI-decoded configuration must implement the design.
	if err := bitstream.Verify(decoded, c.Design, c.Placement, c.Graph); err != nil {
		t.Errorf("decoded bitstream not equivalent to design: %v", err)
	}
	// And it must match the reference decoder bit for bit.
	ref, err := c.VBS.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Equal(ref) {
		t.Error("CLI decode differs from reference decoder")
	}
}

// TestDecodeAtOffset places the task away from the origin on a larger
// fabric and checks the configuration is a pure translation.
func TestDecodeAtOffset(t *testing.T) {
	c := compile(t)
	dir := t.TempDir()
	vbsPath := filepath.Join(dir, "t.vbs")
	rawPath := filepath.Join(dir, "t.rbs")
	container, err := c.VBS.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vbsPath, container, 0o644); err != nil {
		t.Fatal(err)
	}
	w, h := c.Grid.Width+5, c.Grid.Height+4
	fabArg := []string{"-in", vbsPath, "-o", rawPath,
		"-fabric", strconv.Itoa(w) + "x" + strconv.Itoa(h), "-x", "3", "-y", "2"}
	var out bytes.Buffer
	if err := run(fabArg, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := bitstream.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.VBS.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < c.VBS.TaskW; x++ {
		for y := 0; y < c.VBS.TaskH; y++ {
			if !decoded.At(3+x, 2+y).Vec().Equal(ref.At(x, y).Vec()) {
				t.Fatalf("macro (%d,%d) is not a translation", x, y)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.vbs"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.vbs")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}, &out); err == nil {
		t.Error("malformed container accepted")
	}
	c := compile(t)
	container, err := c.VBS.Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.vbs")
	if err := os.WriteFile(good, container, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", good, "-fabric", "nonsense"}, &out); err == nil {
		t.Error("bad -fabric accepted")
	}
	if err := run([]string{"-in", good, "-x", "1000"}, &out); err == nil {
		t.Error("out-of-range position accepted")
	}
}
