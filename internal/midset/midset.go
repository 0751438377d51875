// Package midset compiles the benchmark's mid task set for tests and
// Go benchmarks: six MCNC twins at coding granularities c=1, 2, 4 —
// the same 18 containers `go run ./bench` mints its single_cold
// variants from (bench/taskset.go is package main and cannot be
// imported). It is linked by _test files only, never by a daemon.
package midset

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/mcnc"
)

// Architecture, designs, clusters and scale of bench/taskset.go.
const (
	ArchW = 20
	ArchK = 6
	scale = 6
)

var (
	Designs  = []string{"apex4", "alu4", "ex5p", "misex3", "des", "tseng"}
	Clusters = []int{1, 2, 4}
)

// Container is one compiled mid task as a client would send it.
type Container struct {
	// Name is "<design>-c<cluster>", e.g. "tseng-c4".
	Name    string
	Cluster int
	Data    []byte
}

var build = sync.OnceValues(func() ([]Container, error) {
	var out []Container
	for _, name := range Designs {
		p, err := mcnc.ByName(name)
		if err != nil {
			return nil, err
		}
		d, err := p.Scale(scale).Design(ArchK)
		if err != nil {
			return nil, fmt.Errorf("midset: %s: %w", name, err)
		}
		for _, c := range Clusters {
			flow := &repro.Flow{K: ArchK, W: ArchW, Cluster: c, Seed: 1, PlaceEffort: 1}
			cmp, err := flow.Compile(d)
			if err != nil {
				return nil, fmt.Errorf("midset: %s c=%d: %w", name, c, err)
			}
			data, err := cmp.VBS.Encode()
			if err != nil {
				return nil, fmt.Errorf("midset: %s c=%d: %w", name, c, err)
			}
			out = append(out, Container{Name: fmt.Sprintf("%s-c%d", name, c), Cluster: c, Data: data})
		}
	}
	return out, nil
})

// Containers returns the 18 mid containers, design-major then cluster
// order, compiled once per process. The returned bytes are shared:
// callers must not modify them.
func Containers() ([]Container, error) { return build() }
