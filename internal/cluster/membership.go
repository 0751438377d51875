package cluster

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
)

// Runtime membership. The registry is the authoritative member set —
// active nodes plus draining ones — while the ring carries only the
// active members (lookups must not route new writes onto a node being
// emptied). Every change swaps the ring copy-on-write, bumps the
// membership version, and kicks the rebalancer; requests in flight
// keep routing on the ring snapshot they loaded.
//
// Lifecycle: POST /cluster/nodes joins a node (the rebalancer then
// copies its share of the key space onto it); POST
// .../{name}/drain takes it off the ring so the rebalancer can empty
// it under zero new writes; DELETE /cluster/nodes/{name} forgets it.
// Drain → remove is the graceful decommission path; removing an
// active node directly is the "it is already gone" path (the
// rebalancer re-replicates from the surviving copies).

// MemberInfo is one node in the membership listing: its probe health
// plus its membership mode.
type MemberInfo struct {
	NodeInfo
	// Mode is "active" (on the ring) or "draining" (registry-only,
	// being emptied).
	Mode string `json:"mode"`
}

// MembershipResponse is the GET /cluster/nodes body.
type MembershipResponse struct {
	// Version counts membership changes on this gateway since boot.
	Version uint64 `json:"version"`
	// RingVersion identifies the active-member ring: gateways with
	// equal versions route identically.
	RingVersion string       `json:"ring_version"`
	Nodes       []MemberInfo `json:"nodes"`
}

// AddNodeRequest is the POST /cluster/nodes body.
type AddNodeRequest struct {
	Node string `json:"node"`
}

// memberErr is an admin-verb failure carrying the HTTP status the
// handler should answer with.
type memberErr struct {
	code int
	msg  string
}

func (e *memberErr) Error() string { return e.msg }

func memberErrf(code int, format string, args ...any) error {
	return &memberErr{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeMemberErr maps an admin-verb error onto the reply.
func writeMemberErr(w http.ResponseWriter, err error) {
	if me, ok := err.(*memberErr); ok {
		writeError(w, me.code, "%s", me.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// normalizeNodeURL validates and canonicalizes a node base URL.
func normalizeNodeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.Path != "" {
		return "", memberErrf(http.StatusBadRequest, "node must be an http(s) base URL, got %q", raw)
	}
	return raw, nil
}

// bumpMembership records a change: new ring (may be the current one
// when only the mode changed), version bump, rebalance kick. Caller
// holds mshipMu.
func (g *Gateway) bumpMembership(nr *Ring) {
	g.ring.Store(nr)
	g.mshipVer.Add(1)
	g.reb.Kick()
}

// MembershipVersion returns the count of membership changes (add,
// drain, remove) on this gateway since boot.
func (g *Gateway) MembershipVersion() uint64 { return g.mshipVer.Load() }

// drainingSet snapshots the draining marks.
func (g *Gateway) drainingSet() map[string]bool {
	g.mshipMu.Lock()
	defer g.mshipMu.Unlock()
	out := make(map[string]bool, len(g.draining))
	for n := range g.draining {
		out[n] = true
	}
	return out
}

// AddNode joins a node (base URL) to the cluster at runtime: it enters
// the registry (probed from the next round, optimistically alive until
// then) and the ring, and the rebalancer starts copying its share of
// the key space onto it. Re-adding a draining member cancels the
// drain. Adding a current active member is a conflict.
func (g *Gateway) AddNode(rawURL string) error {
	name, err := normalizeNodeURL(rawURL)
	if err != nil {
		return err
	}
	g.mshipMu.Lock()
	defer g.mshipMu.Unlock()
	if g.draining[name] {
		delete(g.draining, name)
		g.bumpMembership(g.Ring().WithNode(name))
		return nil
	}
	if !g.reg.Add(name) {
		return memberErrf(http.StatusConflict, "node %s already a member", name)
	}
	g.bumpMembership(g.Ring().WithNode(name))
	return nil
}

// DrainNode starts a graceful decommission: the node leaves the ring
// (no new writes route to it) but stays in the registry so the
// rebalancer can copy its blobs to their new owners and trim it empty.
// Draining the last active node is refused; draining an already-
// draining node is a no-op.
func (g *Gateway) DrainNode(name string) error {
	g.mshipMu.Lock()
	defer g.mshipMu.Unlock()
	if g.draining[name] {
		return nil
	}
	ring := g.Ring()
	if !ring.Has(name) {
		return memberErrf(http.StatusNotFound, "node %s not a member", name)
	}
	if ring.Len() == 1 {
		return memberErrf(http.StatusConflict, "cannot drain the last active node")
	}
	g.draining[name] = true
	g.bumpMembership(ring.WithoutNode(name))
	return nil
}

// RemoveNode forgets a member entirely: off the ring (if still
// active) and out of the registry, so ids naming its tasks and fabrics
// answer 404 until it rejoins. Removing the last active node is
// refused.
func (g *Gateway) RemoveNode(name string) error {
	g.mshipMu.Lock()
	defer g.mshipMu.Unlock()
	ring := g.Ring()
	active := ring.Has(name)
	if !active && !g.draining[name] {
		return memberErrf(http.StatusNotFound, "node %s not a member", name)
	}
	if active && ring.Len() == 1 {
		return memberErrf(http.StatusConflict, "cannot remove the last active node")
	}
	g.reg.Remove(name)
	g.streams.drop(name)
	delete(g.draining, name)
	if active {
		ring = ring.WithoutNode(name)
	}
	g.bumpMembership(ring)
	return nil
}

// Members lists the membership table.
func (g *Gateway) Members() MembershipResponse {
	draining := g.drainingSet()
	out := MembershipResponse{
		Version:     g.mshipVer.Load(),
		RingVersion: ringVersionString(g.Ring()),
	}
	for _, info := range g.reg.Snapshot() {
		mode := "active"
		if draining[info.Name] {
			mode = "draining"
		}
		out.Nodes = append(out.Nodes, MemberInfo{NodeInfo: info, Mode: mode})
	}
	return out
}

// resolveNode maps an admin-supplied {name} onto a member name: exact
// match first, then by URL host so operators can say "127.0.0.1:9000"
// instead of path-escaping "http://127.0.0.1:9000".
func (g *Gateway) resolveNode(raw string) string {
	names := g.reg.Names()
	for _, n := range names {
		if n == raw {
			return raw
		}
	}
	for _, n := range names {
		if u, err := url.Parse(n); err == nil && u.Host == raw {
			return n
		}
	}
	return raw
}

func (g *Gateway) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Members())
}

func (g *Gateway) handleAddNode(w http.ResponseWriter, r *http.Request) {
	var req AddNodeRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	if err := g.AddNode(req.Node); err != nil {
		writeMemberErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, g.Members())
}

func (g *Gateway) handleDrainNode(w http.ResponseWriter, r *http.Request) {
	name := g.resolveNode(r.PathValue("name"))
	if err := g.DrainNode(name); err != nil {
		writeMemberErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, g.Members())
}

func (g *Gateway) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	name := g.resolveNode(r.PathValue("name"))
	if err := g.RemoveNode(name); err != nil {
		writeMemberErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, g.Members())
}

func (g *Gateway) handleRebalance(w http.ResponseWriter, r *http.Request) {
	g.reb.Kick()
	writeJSON(w, http.StatusAccepted, g.reb.Stats())
}
