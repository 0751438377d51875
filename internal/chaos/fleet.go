package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/server"
)

// Fabric parameters every chaos node runs with. Small and uniform:
// the harness tests the management plane, not the fabrics.
const (
	fabricsPerNode = 1
	nodeSide       = 16
	NodeW          = 8
	NodeK          = 6
)

// Node is one vbsd under chaos control: the kill/restart primitives
// need a process-shaped handle, whether the daemon runs in this
// process (tests, -local) or as a real subprocess (CI, soaks).
type Node interface {
	// Name is a short stable label ("node0").
	Name() string
	// URL is the node's base URL, stable across restarts.
	URL() string
	// Client speaks directly to the node (not through the gateway).
	Client() *server.Client
	// DataDir is the node's blob repository root on disk.
	DataDir() string
	// Alive reports whether the node is currently running.
	Alive() bool
	// Kill stops the node abruptly — no shutdown hook runs, exactly
	// like SIGKILL. Idempotent.
	Kill() error
	// Restart brings a killed node back on the same address and data
	// dir, so recovery-scan semantics match a real daemon restart. It
	// waits until the node answers /healthz.
	Restart() error
}

// Fleet is the system under test: N nodes behind an in-process
// cluster gateway.
type Fleet struct {
	Nodes    []Node
	Gateway  *cluster.Gateway
	Replicas int
	// URL is the gateway's base URL; Client speaks to it; Admin drives
	// the membership and rebalance endpoints.
	URL    string
	Client *server.Client
	Admin  *cluster.Admin

	gwServer *http.Server
	probe    time.Duration

	// spawn builds one more node of the fleet's kind (in-process or
	// subprocess) for the elastic-membership recipes.
	spawn func(ctx context.Context, name string) (Node, error)
}

// SpawnNode starts one additional node of the fleet's kind (fresh
// data dir, next free name) and appends it to Nodes. It does NOT join
// the node to the gateway — that is the admin step under test. Call
// only from the recipe goroutine: Nodes is not locked.
func (f *Fleet) SpawnNode(ctx context.Context) (Node, error) {
	if f.spawn == nil {
		return nil, fmt.Errorf("chaos: fleet cannot spawn nodes")
	}
	n, err := f.spawn(ctx, fmt.Sprintf("node%d", len(f.Nodes)))
	if err != nil {
		return nil, err
	}
	f.Nodes = append(f.Nodes, n)
	return n, nil
}

// Close tears the whole fleet down: gateway first (draining repairs),
// then every node.
func (f *Fleet) Close() {
	if f.gwServer != nil {
		_ = f.gwServer.Close()
	}
	if f.Gateway != nil {
		f.Gateway.Stop()
	}
	for _, n := range f.Nodes {
		_ = n.Kill()
	}
}

// AliveNodes counts nodes currently running.
func (f *Fleet) AliveNodes() int {
	alive := 0
	for _, n := range f.Nodes {
		if n.Alive() {
			alive++
		}
	}
	return alive
}

// startGateway mounts an in-process cluster gateway over the given
// members (every fleet node when nil) on addr; "127.0.0.1:0" picks a
// fresh loopback port.
func (f *Fleet) startGateway(ctx context.Context, members []string, addr string) error {
	if members == nil {
		for _, n := range f.Nodes {
			members = append(members, n.URL())
		}
	}
	gw, err := cluster.New(members, cluster.Options{
		Replicas:      f.Replicas,
		ProbeInterval: f.probe,
		ProbeTimeout:  2 * f.probe,
		HopTimeout:    10 * time.Second,
		// Membership recipes wait on rebalance convergence, so pass
		// frequently; every membership change also kicks a pass.
		RebalanceInterval: 700 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ln, err := rebind(addr)
	if err != nil {
		return err
	}
	gw.Start(ctx)
	hs := &http.Server{Handler: gw.Handler()}
	f.Gateway, f.gwServer = gw, hs
	f.URL = "http://" + ln.Addr().String()
	f.Client = server.NewClient(f.URL, nil)
	f.Admin = cluster.NewAdmin(f.URL)
	go func() { _ = hs.Serve(ln) }()
	return waitHealthy(ctx, f.Client, 10*time.Second)
}

// RestartGateway crashes the in-process gateway (listener and
// connections closed, no drain) and serves a fresh cluster.New over
// the same members on the same address. Nothing carries over but the
// nodes: whatever the new gateway knows, it learns from them.
func (f *Fleet) RestartGateway(ctx context.Context) error {
	var members []string
	for _, m := range f.Gateway.Members().Nodes {
		members = append(members, m.Name)
	}
	_ = f.gwServer.Close()
	f.Gateway.Stop()
	return f.startGateway(ctx, members, strings.TrimPrefix(f.URL, "http://"))
}

// rebind listens on addr, which a killed server may have just
// released: a brief retry absorbs the TIME_WAIT-ish window.
func rebind(addr string) (net.Listener, error) {
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: rebind %s: %w", addr, err)
}

// waitHealthy polls /healthz until it answers or the deadline lapses.
func waitHealthy(ctx context.Context, cl *server.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := cl.Health(cctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %s not healthy after %s: %w", cl.Base(), timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// ── in-process nodes ───────────────────────────────────────────────

// localNode runs a server.Server on a pinned loopback address inside
// this process. Kill closes the HTTP server (in-flight connections
// die, nothing is flushed — the daemon's write-through durability is
// exactly what makes that survivable); Restart builds a fresh server
// over the same data dir, so loaded tasks are lost and the recovery
// scan re-indexes blobs, matching a real kill -9.
type localNode struct {
	name    string
	addr    string
	dataDir string
	client  *server.Client

	mu    sync.Mutex
	hs    *http.Server
	alive bool
	// Hijacked stream connections. http.Server.Close does not touch
	// them (they left its accounting at upgrade time), so a faithful
	// kill -9 must sever them by hand or the "dead" node would keep
	// serving its transport streams. Entries leave when the conn
	// closes (trackedConn) so streams that end naturally during a long
	// soak do not accumulate.
	hijacked map[net.Conn]struct{}
}

// trackedListener wraps every accepted conn so closing it — whether
// by the stream server after a natural disconnect or by Kill — drops
// it from the node's hijacked map. ConnState and the handler's Hijack
// both see the wrapper (http.Server passes the accepted conn through),
// so the map key and the conn the transport closes are the same value.
type trackedListener struct {
	net.Listener
	node *localNode
}

func (l trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &trackedConn{Conn: c, node: l.node}, nil
}

type trackedConn struct {
	net.Conn
	node *localNode
}

func (c *trackedConn) Close() error {
	c.node.mu.Lock()
	delete(c.node.hijacked, c)
	c.node.mu.Unlock()
	return c.Conn.Close()
}

func newLocalNode(ctx context.Context, name, dataDir string) (*localNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &localNode{
		name:    name,
		addr:    ln.Addr().String(),
		dataDir: dataDir,
	}
	n.client = server.NewClient(n.URL(), nil)
	if err := n.start(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return n, waitHealthy(ctx, n.client, 10*time.Second)
}

func (n *localNode) start(ln net.Listener) error {
	ctrls := make([]*controller.Controller, fabricsPerNode)
	for i := range ctrls {
		f, err := fabric.New(arch.Params{W: NodeW, K: NodeK}, arch.Grid{Width: nodeSide, Height: nodeSide})
		if err != nil {
			return err
		}
		ctrls[i] = controller.New(f, 2)
	}
	srv, err := server.New(ctrls, server.Options{
		DataDir:     n.dataDir,
		EnableChaos: true,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		ConnState: func(c net.Conn, st http.ConnState) {
			if st != http.StateHijacked {
				return
			}
			n.mu.Lock()
			if n.hijacked == nil {
				n.hijacked = make(map[net.Conn]struct{})
			}
			n.hijacked[c] = struct{}{}
			n.mu.Unlock()
		},
	}
	go func() { _ = hs.Serve(trackedListener{Listener: ln, node: n}) }()
	n.mu.Lock()
	n.hs, n.alive = hs, true
	n.mu.Unlock()
	return nil
}

func (n *localNode) Name() string           { return n.name }
func (n *localNode) URL() string            { return "http://" + n.addr }
func (n *localNode) Client() *server.Client { return n.client }
func (n *localNode) DataDir() string        { return n.dataDir }

func (n *localNode) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

func (n *localNode) Kill() error {
	n.mu.Lock()
	hs := n.hs
	conns := n.hijacked
	n.hs, n.alive, n.hijacked = nil, false, nil
	n.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	if hs != nil {
		return hs.Close()
	}
	return nil
}

func (n *localNode) Restart() error {
	if n.Alive() {
		return nil
	}
	// The old listener is closed; the pinned port is free again.
	ln, err := rebind(n.addr)
	if err != nil {
		return err
	}
	if err := n.start(ln); err != nil {
		ln.Close()
		return err
	}
	return waitHealthy(context.Background(), n.client, 10*time.Second)
}

// NewLocalFleet builds an all-in-process fleet: n nodes with data
// dirs under workDir, behind a gateway with the given replica count.
func NewLocalFleet(ctx context.Context, workDir string, n, replicas int, probe time.Duration) (*Fleet, error) {
	f := &Fleet{Replicas: replicas, probe: probe}
	f.spawn = func(ctx context.Context, name string) (Node, error) {
		return newLocalNode(ctx, name, filepath.Join(workDir, "data-"+name))
	}
	for i := 0; i < n; i++ {
		node, err := newLocalNode(ctx, fmt.Sprintf("node%d", i), filepath.Join(workDir, fmt.Sprintf("data%d", i)))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, node)
	}
	if err := f.startGateway(ctx, nil, "127.0.0.1:0"); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ── subprocess nodes ───────────────────────────────────────────────

// procNode runs a real vbsd binary. Kill delivers SIGKILL.
type procNode struct {
	name    string
	addr    string
	dataDir string
	vbsd    string
	logPath string
	client  *server.Client

	mu  sync.Mutex
	cmd *exec.Cmd
}

func newProcNode(ctx context.Context, vbsd, name, dataDir, logPath string) (*procNode, error) {
	// Reserve a loopback port by binding and releasing it; the daemon
	// rebinds it immediately after.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	n := &procNode{
		name:    name,
		addr:    addr,
		dataDir: dataDir,
		vbsd:    vbsd,
		logPath: logPath,
	}
	n.client = server.NewClient(n.URL(), nil)
	if err := n.spawn(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *procNode) spawn(ctx context.Context) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(n.vbsd,
		"-addr", n.addr,
		"-fabrics", fmt.Sprint(fabricsPerNode),
		"-size", fmt.Sprintf("%dx%d", nodeSide, nodeSide),
		"-w", fmt.Sprint(NodeW),
		"-k", fmt.Sprint(NodeK),
		"-data-dir", n.dataDir,
		"-chaos",
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	logf.Close() // the child holds its own descriptor
	n.mu.Lock()
	n.cmd = cmd
	n.mu.Unlock()
	if err := waitHealthy(ctx, n.client, 15*time.Second); err != nil {
		_ = n.Kill()
		return err
	}
	return nil
}

func (n *procNode) Name() string           { return n.name }
func (n *procNode) URL() string            { return "http://" + n.addr }
func (n *procNode) Client() *server.Client { return n.client }
func (n *procNode) DataDir() string        { return n.dataDir }

func (n *procNode) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cmd != nil
}

func (n *procNode) Kill() error {
	n.mu.Lock()
	cmd := n.cmd
	n.cmd = nil
	n.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil
}

func (n *procNode) Restart() error {
	if n.Alive() {
		return nil
	}
	return n.spawn(context.Background())
}

// NewProcFleet builds a fleet of vbsd subprocesses (binary at
// vbsdPath) with data dirs and logs under workDir, behind an
// in-process gateway.
func NewProcFleet(ctx context.Context, vbsdPath, workDir string, n, replicas int, probe time.Duration) (*Fleet, error) {
	f := &Fleet{Replicas: replicas, probe: probe}
	f.spawn = func(ctx context.Context, name string) (Node, error) {
		return newProcNode(ctx, vbsdPath, name,
			filepath.Join(workDir, "data-"+name),
			filepath.Join(workDir, name+".log"))
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		node, err := newProcNode(ctx, vbsdPath, name,
			filepath.Join(workDir, "data"+fmt.Sprint(i)),
			filepath.Join(workDir, name+".log"))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, node)
	}
	if err := f.startGateway(ctx, nil, "127.0.0.1:0"); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
