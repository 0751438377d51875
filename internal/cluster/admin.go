package cluster

import (
	"context"
	"net/http"
	"net/url"

	"repro/internal/server"
)

// Admin is a thin client for the gateway's cluster-admin endpoints
// (membership and rebalance control) — the surface behind the vbsgw
// `node` and `rebalance` verbs. It rides server.Client's request path,
// so its errors answer server.StatusCode and server.ErrorMessage.
type Admin struct {
	c *server.Client
}

// NewAdmin targets a gateway at base (e.g. "http://localhost:8930").
func NewAdmin(base string) *Admin {
	return &Admin{c: server.NewClient(base, nil)}
}

// Nodes lists the membership table.
func (a *Admin) Nodes(ctx context.Context) (MembershipResponse, error) {
	var out MembershipResponse
	err := a.c.Do(ctx, http.MethodGet, "/cluster/nodes", nil, &out)
	return out, err
}

// AddNode joins a node (base URL) to the cluster.
func (a *Admin) AddNode(ctx context.Context, node string) (MembershipResponse, error) {
	var out MembershipResponse
	err := a.c.Do(ctx, http.MethodPost, "/cluster/nodes", AddNodeRequest{Node: node}, &out)
	return out, err
}

// DrainNode starts a graceful decommission of a member.
func (a *Admin) DrainNode(ctx context.Context, node string) (MembershipResponse, error) {
	var out MembershipResponse
	err := a.c.Do(ctx, http.MethodPost, "/cluster/nodes/"+url.PathEscape(node)+"/drain", nil, &out)
	return out, err
}

// RemoveNode forgets a member.
func (a *Admin) RemoveNode(ctx context.Context, node string) (MembershipResponse, error) {
	var out MembershipResponse
	err := a.c.Do(ctx, http.MethodDelete, "/cluster/nodes/"+url.PathEscape(node), nil, &out)
	return out, err
}

// Rebalance kicks a rebalance pass and returns the current progress.
func (a *Admin) Rebalance(ctx context.Context) (RebalanceStats, error) {
	var out RebalanceStats
	err := a.c.Do(ctx, http.MethodPost, "/cluster/rebalance", nil, &out)
	return out, err
}
