package server_test

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/server"
)

// makeVBS compiles a small random task to a VBS container. It panics
// on error so the runnable Example can share it.
func makeVBS(seed int64, nLB, size, w, cluster int) *core.VBS {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Name: "task", K: 6}
	var nets []netlist.NetID
	for i := 0; i < 4; i++ {
		_, n := d.AddInputPad("pi")
		nets = append(nets, n)
	}
	for i := 0; i < nLB; i++ {
		nin := rng.Intn(4) + 1
		ins := make([]netlist.NetID, nin)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		truth := bits.NewVec(64)
		for b := 0; b < 64; b++ {
			truth.Set(b, rng.Intn(2) == 0)
		}
		_, n := d.AddLogicBlock("lb", ins, truth, false)
		nets = append(nets, n)
	}
	for i := 0; i < 4; i++ {
		d.AddOutputPad("po", nets[len(nets)-1-i])
	}
	pl, err := place.Place(d, arch.GridForSize(size), place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		panic(err)
	}
	gr, err := rrg.Build(arch.Params{W: w, K: 6}, pl.Grid)
	if err != nil {
		panic(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		panic(err)
	}
	v, _, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: cluster})
	if err != nil {
		panic(err)
	}
	return v
}

// newPool builds n blank W=8 fabrics of the given grid side wrapped in
// controllers.
func newPool(n, side int) []*controller.Controller {
	ctrls := make([]*controller.Controller, n)
	for i := range ctrls {
		f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: side, Height: side})
		if err != nil {
			panic(err)
		}
		ctrls[i] = controller.New(f, 2)
	}
	return ctrls
}

// newTestDaemon starts an httptest daemon over a fresh pool and
// returns a client for it.
func newTestDaemon(t *testing.T, fabrics, side int, opts server.Options) (*server.Client, *server.Server) {
	t.Helper()
	srv, err := server.New(newPool(fabrics, side), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return server.NewClient(hs.URL, hs.Client()), srv
}

// scrape takes one /metrics snapshot of a daemon and returns a lookup
// over it. labels are name, value pairs; an absent sample fails the
// test.
func scrape(t *testing.T, c *server.Client) func(name string, labels ...string) float64 {
	t.Helper()
	samples, err := c.Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return func(name string, labels ...string) float64 {
		t.Helper()
		want := map[string]string{}
		for i := 0; i+1 < len(labels); i += 2 {
			want[labels[i]] = labels[i+1]
		}
		v, ok := metrics.Find(samples, name, want)
		if !ok {
			t.Fatalf("metric %s%v not exported", name, want)
		}
		return v
	}
}

// fabricTotals sums the per-fabric rows of GET /fabrics.
func fabricTotals(t *testing.T, c *server.Client) controller.Stats {
	t.Helper()
	fabs, err := c.Fabrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var sum controller.Stats
	for _, f := range fabs {
		sum.Loads += f.Loads
		sum.Unloads += f.Unloads
		sum.Relocations += f.Relocations
	}
	return sum
}
