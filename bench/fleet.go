package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/server"
)

// The system under test is built with the public constructors at the
// shipped cmd/vbsd and cmd/vbsgw defaults — no tuning. Only the fabric
// side is larger than vbsd's 32x32, so that the resident-task cap
// never turns a load into a capacity reject.
const (
	nodeFabrics  = 2
	fabricSide   = 64
	cacheBits    = 64 * 1_000_000
	storeBytes   = 256 * 1_000_000
	clusterNodes = 3
	replicas     = 2
)

// daemon is one HTTP server of the fleet on a loopback listener.
type daemon struct {
	url string
	hs  *http.Server
}

// basePort is where a fleet prefers to listen: the gateway (or the
// single node) on basePort, cluster node i on basePort+1+i. A node's
// URL is its name on the gateway's hash ring, so ports picked by the
// kernel would deal the eight warm containers to the three nodes
// differently on every run — anything from 3/3/2 to 7/1/0 — and the
// cluster workloads would measure that draw. With these ports the
// deal is 3/3/2, the same every run. A port that is taken (a second
// fleet in the same process, another program) falls back to one the
// kernel picks.
const basePort = 42200

func serve(h http.Handler, port int) (*daemon, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	d := &daemon{
		url: "http://" + ln.Addr().String(),
		hs:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
	}
	go func() { _ = d.hs.Serve(ln) }()
	return d, nil
}

// fleet is the system under test for one workload run: a single
// RAM-only node, or a gateway over three disk-backed nodes. url is
// where clients send requests.
type fleet struct {
	url     string
	nodes   []*daemon
	gateway *cluster.Gateway
	front   *daemon // the gateway's listener; nil on a single node
	dataDir string  // root of the nodes' data dirs; "" when RAM-only
}

// daemons lists every /metrics endpoint of the fleet.
func (f *fleet) daemons() []string {
	var urls []string
	if f.front != nil {
		urls = append(urls, f.front.url)
	}
	for _, n := range f.nodes {
		urls = append(urls, n.url)
	}
	return urls
}

func newNode(dataDir string, port int) (*daemon, error) {
	ctrls := make([]*controller.Controller, nodeFabrics)
	for i := range ctrls {
		fab, err := fabric.New(arch.Params{W: archW, K: archK}, arch.Grid{Width: fabricSide, Height: fabricSide})
		if err != nil {
			return nil, err
		}
		ctrls[i] = controller.New(fab, 0)
	}
	srv, err := server.New(ctrls, server.Options{
		CacheBits:  cacheBits,
		StoreBytes: storeBytes,
		DataDir:    dataDir,
	})
	if err != nil {
		return nil, err
	}
	return serve(srv.Handler(), port)
}

// bootFleet starts a fresh fleet. tmpRoot is where a clustered
// fleet's data dirs are created; close removes them.
func bootFleet(ctx context.Context, clustered bool, tmpRoot string) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if !clustered {
		n, err := newNode("", basePort)
		if err != nil {
			return nil, err
		}
		f.nodes = []*daemon{n}
		f.url = n.url
		return f, nil
	}
	if f.dataDir, err = tempDir(tmpRoot, "fleet-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < clusterNodes; i++ {
		n, err := newNode(filepath.Join(f.dataDir, fmt.Sprintf("node%d", i)), basePort+1+i)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	if f.gateway, err = cluster.New(urls, cluster.Options{Replicas: replicas}); err != nil {
		return nil, err
	}
	f.gateway.Start(ctx)
	if f.front, err = serve(f.gateway.Handler(), basePort); err != nil {
		return nil, err
	}
	f.url = f.front.url
	return f, nil
}

// tempDir makes a fresh directory under root, creating root first.
// Everything the bench writes to disk while it runs lives under one
// such root inside its output directory.
func tempDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// close tears the fleet down front to back — gateway listener, its
// streams and background loops, then the nodes — and removes the
// data dirs. Safe on a partly booted fleet.
func (f *fleet) close() {
	if f.front != nil {
		_ = f.front.hs.Close()
	}
	if f.gateway != nil {
		f.gateway.Stop()
	}
	for _, n := range f.nodes {
		_ = n.hs.Close()
	}
	if f.dataDir != "" {
		_ = os.RemoveAll(f.dataDir)
	}
}
