package controller_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/midset"
)

// midByCluster parses the benchmark's mid containers, grouped by
// coding granularity (six tasks each, design order).
func midByCluster(tb testing.TB) map[int][]*core.VBS {
	tb.Helper()
	cs, err := midset.Containers()
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[int][]*core.VBS)
	for _, c := range cs {
		v, err := core.Parse(c.Data)
		if err != nil {
			tb.Fatalf("%s: %v", c.Name, err)
		}
		out[c.Cluster] = append(out[c.Cluster], v)
	}
	return out
}

// BenchmarkDecodeMid is the de-virtualization cost of the bench's
// single_cold inputs: one iteration decodes the six MCNC twins of one
// coding granularity, the unit behind decode.c1_ms/c2_ms/c4_ms.
func BenchmarkDecodeMid(b *testing.B) {
	tasks := midByCluster(b)
	for _, c := range midset.Clusters {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("c=%d/workers=%d", c, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, v := range tasks[c] {
						if _, err := controller.DecodeVBS(v, workers); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// Golden SHA-256 of the mid set per coding granularity, computed on
// the commit before the router's early exit (PR 12, bb6da6e): the six
// containers' bytes in design order, and the six decoded raw
// bit-streams. The encoder's feedback loop runs the same region
// router as the decoder, so a tie-break change in either shows here —
// in the container bytes if the encoder re-ordered or fell back, in
// the decoded bits if only the decoder moved.
var midGolden = map[int]struct{ containers, decoded string }{
	1: {"1cc3317c4bfa14d7f003c8bb63ee800aaed1050f0287a7ebdb622103ecff9263", "7d0750a68d236b853b6019ea638752e3eb8ae4b644867f9a5bbe22bf74989fc2"},
	2: {"2e56ddb745a1eae60d9dc17c90b851994a05879f1b93c09b405ae65a12ed3709", "07f96d6f96b1664104c88c0872198c48d521cad1f1c978ec465557566ac0eeb0"},
	4: {"44ec7d5af8cc9b3d8129fa6e3d32bfe79ed80672b60bc7da0dcc2a3f5a1d1f2f", "2b00646221756b0f4c7cf7c737047023a44b5f035d2881c35a44e3cf796ce5d3"},
}

func TestMidSetGoldenHashes(t *testing.T) {
	cs, err := midset.Containers()
	if err != nil {
		t.Fatal(err)
	}
	containers := map[int]hash.Hash{}
	decoded := map[int]hash.Hash{}
	for _, c := range midset.Clusters {
		containers[c], decoded[c] = sha256.New(), sha256.New()
	}
	for _, c := range cs {
		containers[c.Cluster].Write(c.Data)
		v, err := core.Parse(c.Data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		raw, err := v.Decode(1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		decoded[c.Cluster].Write(raw.Encode())

		// The materializing decoder (the daemon's cold-load path) must
		// agree with the in-place one bit for bit.
		dec, err := controller.DecodeVBS(v, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		mat := bitstream.New(v.P, arch.Grid{Width: v.TaskW, Height: v.TaskH})
		for y := 0; y < v.TaskH; y++ {
			for x := 0; x < v.TaskW; x++ {
				if cfg := dec.ConfigAt(x, y); cfg != nil {
					mat.At(x, y).Vec().Or(cfg.Vec())
				}
			}
		}
		if !mat.Equal(raw) {
			t.Errorf("%s: DecodeVBS and Decode disagree", c.Name)
		}
	}
	for _, c := range midset.Clusters {
		want := midGolden[c]
		if got := hex.EncodeToString(containers[c].Sum(nil)); got != want.containers {
			t.Errorf("c=%d container bytes: sha256 %s, want %s", c, got, want.containers)
		}
		if got := hex.EncodeToString(decoded[c].Sum(nil)); got != want.decoded {
			t.Errorf("c=%d decoded bits: sha256 %s, want %s", c, got, want.decoded)
		}
	}
}
