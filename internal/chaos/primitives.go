package chaos

// Fault primitives: the verbs recipes compose. Each primitive does
// one raw injection and records itself in the run report; recipes own
// sequencing and timing, conditions own judging the aftermath.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/repo"
	"repro/internal/server"
)

// KillNode stops a node abruptly (SIGKILL semantics).
func (e *Env) KillNode(n Node) error {
	e.recordFault("kill %s", n.Name())
	return n.Kill()
}

// RestartNode brings a killed node back on its old address and data
// dir and waits for it to answer /healthz.
func (e *Env) RestartNode(n Node) error {
	e.recordFault("restart %s", n.Name())
	return n.Restart()
}

// ArmFaults sets a node's repo fault seam over HTTP (the node runs
// with chaos endpoints enabled).
func (e *Env) ArmFaults(ctx context.Context, n Node, f server.ChaosFaults) error {
	e.recordFault("faults %s %+v", n.Name(), f)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return n.Client().SetFaults(cctx, f)
}

// ClearFaults disarms a node's repo fault seam.
func (e *Env) ClearFaults(ctx context.Context, n Node) error {
	e.recordFault("faults %s cleared", n.Name())
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return n.Client().SetFaults(cctx, server.ChaosFaults{})
}

// AddFreshNode spawns one more node of the fleet's kind and joins it
// to the gateway through the membership API — an elastic scale-out,
// exactly what `vbsgw node add` does.
func (e *Env) AddFreshNode(ctx context.Context) (Node, error) {
	n, err := e.Fleet.SpawnNode(ctx)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := e.Fleet.Admin.AddNode(cctx, n.URL()); err != nil {
		return nil, fmt.Errorf("chaos: join %s: %w", n.Name(), err)
	}
	e.recordFault("spawn + join %s (%s)", n.Name(), n.URL())
	return n, nil
}

// DrainMember starts a graceful decommission of a node: off the ring
// for new writes, still serving while the rebalancer empties it.
func (e *Env) DrainMember(ctx context.Context, n Node) error {
	e.recordFault("drain %s", n.Name())
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_, err := e.Fleet.Admin.DrainNode(cctx, n.URL())
	return err
}

// RemoveMember forgets a node at the gateway. The process keeps
// running (or stays dead) — only the membership changes.
func (e *Env) RemoveMember(ctx context.Context, n Node) error {
	e.recordFault("remove %s from membership", n.Name())
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_, err := e.Fleet.Admin.RemoveNode(cctx, n.URL())
	return err
}

// DeleteBlob deletes a digest through the gateway — fan-out delete
// plus tombstones on every member, so nothing resurrects it.
func (e *Env) DeleteBlob(ctx context.Context, digest string) error {
	e.recordFault("delete blob %.12s via gateway", digest)
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return e.Fleet.Client.DeleteVBS(cctx, digest)
}

// CorruptBlob flips a byte in the payload tail of a digest's on-disk
// blob file under a node's data dir — real bit rot, not the injection
// seam. The node's RAM tier may keep serving the healthy copy until
// it restarts; the boot recovery scan is what must quarantine.
func (e *Env) CorruptBlob(n Node, digest string) error {
	d, err := repo.ParseDigest(digest)
	if err != nil {
		return err
	}
	path := repo.BlobPath(n.DataDir(), d)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: corrupt %s on %s: %w", d.Short(), n.Name(), err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("chaos: corrupt %s on %s: %w", d.Short(), n.Name(), err)
	}
	e.recordFault("corrupt blob %s on %s", d.Short(), n.Name())
	return nil
}
