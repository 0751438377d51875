// Compression: a single-benchmark walk through the paper's evaluation
// — raw bitstream vs Virtual Bit-Stream at every cluster size
// (Figures 4 and 5 in miniature), against the LZSS dictionary-coding
// baseline of the related work.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mcnc"
	"repro/internal/report"
)

func main() {
	benchName := "apex4"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}
	prof, err := mcnc.ByName(benchName)
	if err != nil {
		log.Fatal(err)
	}
	scaled := prof.Scale(4)
	d, err := gen.Generate(scaled.GenParams(6))
	if err != nil {
		log.Fatal(err)
	}

	flow := repro.NewFlow()
	flow.W = 20 // the paper's normalized channel width
	flow.PlaceEffort = 2
	c, err := flow.Compile(d)
	if err != nil {
		log.Fatal(err)
	}

	rawBits := c.Raw.SizeBits()
	lzssBits := 8 * len(compress.CompressLZSS(c.Raw.Encode()))
	fmt.Printf("benchmark %s (scaled): %d LBs on a %dx%d fabric, W=20\n\n",
		benchName, d.NumLogicBlocks(), c.Grid.Width, c.Grid.Height)

	tab := &report.Table{
		Title:   "Coding comparison",
		Headers: []string{"Coding", "Size", "% of raw", "Decode"},
	}
	tab.AddRow("raw bitstream", report.Bits(rawBits), "100.0%", "-")
	tab.AddRow("LZSS(raw)", report.Bits(lzssBits), report.Percent(float64(lzssBits)/float64(rawBits)), "-")

	for _, cluster := range []int{1, 2, 3, 4, 6} {
		v, stats, err := core.Encode(c.Design, c.Placement, c.Routing,
			core.EncodeOptions{Cluster: cluster})
		if err != nil {
			log.Fatalf("cluster %d: %v", cluster, err)
		}
		start := time.Now()
		if _, err := v.Decode(1); err != nil {
			log.Fatal(err)
		}
		decode := time.Since(start)
		label := fmt.Sprintf("VBS cluster %d", cluster)
		if stats.RawRegions > 0 {
			label += fmt.Sprintf(" (%d raw)", stats.RawRegions)
		}
		tab.AddRow(label, report.Bits(v.Size()),
			report.Percent(v.CompressionRatio()),
			decode.Round(time.Microsecond).String())
	}
	tab.Render(os.Stdout)

	fmt.Println("\nnote the paper's trade-off: coarser clusters compress harder but")
	fmt.Println("cost more decode time, and past the sweet spot fallbacks erode the gain")
}
