package cluster_test

import (
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/server"
)

// makeVBS compiles a small random task to a VBS container (same
// recipe as the server package's test helper).
func makeVBS(t *testing.T, seed int64, nLB int) []byte {
	t.Helper()
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
	pl, err := place.Place(d, arch.GridForSize(4), place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := rrg.Build(arch.Params{W: 8, K: 6}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// node is one in-process vbsd daemon under the gateway.
type testNode struct {
	url     string
	srv     *server.Server
	hs      *httptest.Server
	client  *server.Client
	fabrics int
	opts    server.Options
}

// bootDaemon builds a vbsd over fresh 16x16 W=8 fabrics.
func bootDaemon(t *testing.T, fabrics int, opts server.Options) *server.Server {
	t.Helper()
	ctrls := make([]*controller.Controller, fabrics)
	for i := range ctrls {
		f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 16, Height: 16})
		if err != nil {
			t.Fatal(err)
		}
		ctrls[i] = controller.New(f, 2)
	}
	srv, err := server.New(ctrls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newNode starts an httptest vbsd; each wrap, when given, sits in
// front of the daemon's handler.
func newNode(t *testing.T, fabrics int, opts server.Options, wrap ...func(http.Handler) http.Handler) *testNode {
	t.Helper()
	srv := bootDaemon(t, fabrics, opts)
	var h http.Handler = srv.Handler()
	for _, w := range wrap {
		h = w(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return &testNode{url: hs.URL, srv: srv, hs: hs, client: server.NewClient(hs.URL, nil), fabrics: fabrics, opts: opts}
}

// restart kills the node and boots a fresh daemon (new boot instance,
// no tasks, same options and data dir) on the same address. Handler
// wraps are not reinstalled.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	addr := n.hs.Listener.Addr().String()
	n.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	n.srv = bootDaemon(t, n.fabrics, n.opts)
	hs := httptest.NewUnstartedServer(n.srv.Handler())
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	t.Cleanup(hs.Close)
	n.hs = hs
}

// newCluster starts n nodes plus a gateway over them, and returns an
// unchanged server.Client speaking to the gateway — the acceptance
// condition of the whole subsystem.
func newCluster(t *testing.T, n, fabricsPerNode int, opts cluster.Options) (*server.Client, *cluster.Gateway, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newNode(t, fabricsPerNode, server.Options{})
	}
	cl, gw := startGateway(t, nodes, opts)
	return cl, gw, nodes
}

// startGateway fronts the nodes with a started gateway and returns a
// client speaking to it.
func startGateway(t *testing.T, nodes []*testNode, opts cluster.Options) (*server.Client, *cluster.Gateway) {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 200 * time.Millisecond
	}
	if opts.ProbeTimeout == 0 {
		opts.ProbeTimeout = time.Second
	}
	gw, err := cluster.New(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	gw.Start(t.Context())
	t.Cleanup(gw.Stop)
	hs := httptest.NewServer(gw.Handler())
	t.Cleanup(hs.Close)
	return server.NewClient(hs.URL, nil), gw
}

// nodesHolding lists which of the nodes hold the digest.
func nodesHolding(t *testing.T, nodes []*testNode, digest string) []string {
	t.Helper()
	var out []string
	for _, n := range nodes {
		if n.hs == nil {
			continue
		}
		blobs, err := n.client.ListVBS(t.Context())
		if err != nil {
			continue
		}
		for _, b := range blobs {
			if b.Digest == digest {
				out = append(out, n.url)
				break
			}
		}
	}
	return out
}

// kill closes a node's HTTP server so every future call to it fails
// at the transport level (the cluster's view of a crashed daemon).
func (n *testNode) kill() {
	n.hs.CloseClientConnections()
	n.hs.Close()
	n.hs = nil
}
