// Command vbsdecode is the runtime side of the flow as a CLI: it
// de-virtualizes a Virtual Bit-Stream into a raw configuration at a
// chosen position on a chosen fabric, which is exactly what the
// reconfiguration controller does at task load time.
//
//	vbsdecode -in task.vbs -fabric 64x64 -x 10 -y 4 -o region.rbs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vbsdecode: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vbsdecode", flag.ContinueOnError)
	var (
		inPath  = fs.String("in", "", "input VBS file")
		outPath = fs.String("o", "", "output raw bitstream file (optional)")
		x       = fs.Int("x", 0, "task west column on the fabric")
		y       = fs.Int("y", 0, "task south row on the fabric")
		size    = fs.String("fabric", "", "fabric WxH in macros (default: the task's own size)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("-in required")
	}

	data, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	v, err := core.Parse(data)
	if err != nil {
		return err
	}

	grid := arch.Grid{Width: v.TaskW, Height: v.TaskH}
	if *size != "" {
		if _, err := fmt.Sscanf(*size, "%dx%d", &grid.Width, &grid.Height); err != nil {
			return fmt.Errorf("bad -fabric %q: %w", *size, err)
		}
	}

	target := bitstream.New(v.P, grid)
	if err := v.DecodeInto(target, *x, *y, 1); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "task    : %dx%d macros, W=%d, K=%d, cluster %d\n",
		v.TaskW, v.TaskH, v.P.W, v.P.K, v.Cluster)
	fmt.Fprintf(stdout, "entries : %d regions (%d raw fallback)\n", len(v.Entries), countRaw(v))
	fmt.Fprintf(stdout, "VBS     : %s; raw equivalent %s (%s)\n",
		report.Bits(v.Size()), report.Bits(v.RawSizeBits()),
		report.Percent(v.CompressionRatio()))
	fmt.Fprintf(stdout, "decoded : at (%d,%d) on %dx%d fabric\n", *x, *y, grid.Width, grid.Height)

	if *outPath != "" {
		out := target.Encode()
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote   : %s (%d bytes)\n", *outPath, len(out))
	}
	return nil
}

func countRaw(v *core.VBS) int {
	n := 0
	for i := range v.Entries {
		if v.Entries[i].Raw {
			n++
		}
	}
	return n
}
