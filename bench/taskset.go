package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/loadgen"
	"repro/internal/mcnc"
)

// Architecture every daemon and every container of the benchmark
// shares: the paper's normalized channel width and LUT size.
const (
	archW = 20
	archK = 6
)

// container is one VBS as a client sends it: the bytes, the
// POST /tasks body that carries them and their content address (both
// computed in set-up so the timed loop spends no client CPU on them),
// and the task dimensions a load reply must echo.
type container struct {
	name         string
	cluster      int
	data         []byte
	body         []byte // {"vbs":"<base64 of data>"}
	digest       string
	taskW, taskH int
	rawBytes     int // size of the equivalent raw bit-stream
	fresh        bool
}

func newContainer(name string, data []byte, v *core.VBS, fresh bool) *container {
	sum := sha256.Sum256(data)
	return &container{
		name:     name,
		cluster:  v.Cluster,
		data:     data,
		body:     []byte(bodyPrefix + base64.StdEncoding.EncodeToString(data) + bodySuffix),
		digest:   hex.EncodeToString(sum[:]),
		taskW:    v.TaskW,
		taskH:    v.TaskH,
		rawBytes: (v.RawSizeBits() + 7) / 8,
		fresh:    fresh,
	}
}

const (
	bodyPrefix = `{"vbs":"`
	bodySuffix = `"}`
)

// b64 is the base64 form of the container, cut out of its body.
func (c *container) b64() string {
	return string(c.body[len(bodyPrefix) : len(c.body)-len(bodySuffix)])
}

// midDesigns are the MCNC twins of the mid set; midClusters the
// coding granularities each is compiled at. Fixed: -seed never
// changes a base design.
var (
	midDesigns  = []string{"apex4", "alu4", "ex5p", "misex3", "des", "tseng"}
	midClusters = []int{1, 2, 4}
)

const (
	smallCount = 8
	midScale   = 6
)

// taskSet is the fixed part of the benchmark's inputs: 8 small
// containers (4x4 logic grid, c=1) and 18 mid containers (6 MCNC
// twins at c=1, 2, 4). Fresh variants are minted from these.
type taskSet struct {
	small []*container
	mid   []*container
	// compileMS holds one repro.Flow.Compile wall time per mid
	// container — the offline flow's per-layer figure.
	compileMS []float64
}

// buildTaskSet compiles and verifies every base container. Each mid
// container is parsed back from its bytes, de-virtualized, placed on
// a fabric exactly its size and checked with bitstream.Verify against
// the design, placement and routing graph it was compiled from — the
// paper's equivalence oracle; each small container (loadgen keeps its
// design private) must at least parse, decode and place.
func buildTaskSet() (*taskSet, error) {
	ts := &taskSet{}
	for seed := int64(1); seed <= smallCount; seed++ {
		data, err := loadgen.GenTask(seed, archW, archK)
		if err != nil {
			return nil, fmt.Errorf("small task %d: %w", seed, err)
		}
		v, fab, err := decodeOntoFabric(data)
		if err != nil {
			return nil, fmt.Errorf("small task %d: %w", seed, err)
		}
		if fab.UsedMacros() != v.TaskW*v.TaskH {
			return nil, fmt.Errorf("small task %d: placed %d macros, want %d", seed, fab.UsedMacros(), v.TaskW*v.TaskH)
		}
		ts.small = append(ts.small, newContainer(fmt.Sprintf("small-%d", seed), data, v, false))
	}
	for _, name := range midDesigns {
		p, err := mcnc.ByName(name)
		if err != nil {
			return nil, err
		}
		p = p.Scale(midScale)
		d, err := p.Design(archK)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		for _, c := range midClusters {
			flow := &repro.Flow{K: archK, W: archW, Cluster: c, Seed: 1, PlaceEffort: 1}
			begin := time.Now()
			cmp, err := flow.Compile(d)
			if err != nil {
				return nil, fmt.Errorf("%s c=%d: %w", p.Name, c, err)
			}
			ts.compileMS = append(ts.compileMS, ms(time.Since(begin)))
			data, err := cmp.VBS.Encode()
			if err != nil {
				return nil, fmt.Errorf("%s c=%d: %w", p.Name, c, err)
			}
			v, fab, err := decodeOntoFabric(data)
			if err != nil {
				return nil, fmt.Errorf("%s c=%d: %w", p.Name, c, err)
			}
			if err := bitstream.Verify(fab.Config(), cmp.Design, cmp.Placement, cmp.Graph); err != nil {
				return nil, fmt.Errorf("%s c=%d fails the equivalence oracle: %w", p.Name, c, err)
			}
			ts.mid = append(ts.mid, newContainer(fmt.Sprintf("%s-c%d", p.Name, c), data, v, false))
		}
	}
	return ts, nil
}

// decodeOntoFabric runs container bytes through the run-time path —
// parse, de-virtualize, place — on a blank fabric exactly the task's
// size, and returns the parsed VBS and the configured fabric.
func decodeOntoFabric(data []byte) (*core.VBS, *fabric.Fabric, error) {
	v, err := core.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	dec, err := controller.DecodeVBS(v, 0)
	if err != nil {
		return nil, nil, err
	}
	fab, err := fabric.New(v.P, arch.Grid{Width: v.TaskW, Height: v.TaskH})
	if err != nil {
		return nil, nil, err
	}
	if _, err := controller.New(fab, 0).LoadDecodedPolicy(dec, nil); err != nil {
		return nil, nil, err
	}
	return v, fab, nil
}

// compressRatio is container bytes over raw-bit-stream bytes, summed
// over a set of containers: the paper's headline figure as a client
// of the wire API sees it (container preamble and byte padding
// included).
func compressRatio(cs []*container) float64 {
	var vbs, raw int
	for _, c := range cs {
		vbs += len(c.data)
		raw += c.rawBytes
	}
	return float64(vbs) / float64(raw)
}

// mintVariant derives a never-seen container from a base: parse,
// overwrite every LUT truth bit from the PRNG, re-encode. Routing —
// and with it size and de-virtualization cost — is the base's; the
// content address is new. The variant is re-parsed before it is
// handed out.
func mintVariant(base *container, rng *rand.Rand) (*container, error) {
	v, err := core.Parse(base.data)
	if err != nil {
		return nil, fmt.Errorf("variant of %s: %w", base.name, err)
	}
	for ei := range v.Entries {
		for _, li := range v.Entries[ei].Logic {
			for b, n := 0, li.Data.Len(); b < n; {
				word := rng.Uint64()
				for k := 0; k < 64 && b < n; k, b = k+1, b+1 {
					li.Data.Set(b, word&(1<<uint(k)) != 0)
				}
			}
		}
	}
	data, err := v.Encode()
	if err != nil {
		return nil, fmt.Errorf("variant of %s: %w", base.name, err)
	}
	if len(data) != len(base.data) {
		return nil, fmt.Errorf("variant of %s: %d bytes, base has %d", base.name, len(data), len(base.data))
	}
	back, err := core.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("variant of %s does not re-parse: %w", base.name, err)
	}
	return newContainer(base.name+"+", data, back, true), nil
}

// variantPool hands one client its fresh containers. The sequence is
// a pure function of the seed the pool was built with; fill mints a
// prefix ahead of the timed window, and next falls back to minting in
// place (counted in late) should a run outlast the prefix — so a
// faster system under test costs the client a little CPU, never a
// failed run.
type variantPool struct {
	bases []*container
	rng   *rand.Rand
	ready []*container
	late  int
}

func newVariantPool(bases []*container, seed int64) *variantPool {
	return &variantPool{bases: bases, rng: rand.New(rand.NewSource(seed))}
}

func (p *variantPool) mint() (*container, error) {
	return mintVariant(p.bases[p.rng.Intn(len(p.bases))], p.rng)
}

func (p *variantPool) fill(n int) error {
	for len(p.ready) < n {
		c, err := p.mint()
		if err != nil {
			return err
		}
		p.ready = append(p.ready, c)
	}
	return nil
}

func (p *variantPool) next() (*container, error) {
	if len(p.ready) == 0 {
		p.late++
		return p.mint()
	}
	c := p.ready[0]
	p.ready = p.ready[1:]
	return c, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
