// Package cluster turns N independent vbsd daemons into one sharded
// serving cluster behind a thin gateway that speaks the same
// HTTP/JSON API as a single daemon (cmd/vbsgw; the unchanged
// server.Client works against it).
//
// Blobs are routed by their content address over a deterministic
// consistent-hash ring (virtual nodes): every digest maps to a
// primary node plus R−1 replicas, membership changes remap only
// ~1/N of the key space, and the mapping is a pure function of the
// node names — two gateways (or one gateway across restarts) agree
// without coordination.
//
// A registry probes every node's /healthz and tracks alive → suspect
// → down transitions; reads fail over across the replica set (and
// fall back to a full scatter for blobs imported out-of-band), writes
// replicate through to R nodes, and replica misses are repaired on
// read. Fleet-wide endpoints (GET /vbs, /tasks, /fabrics)
// scatter-gather and merge.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"repro/internal/repo"
)

// Ring is a deterministic consistent-hash ring with virtual nodes.
// It is immutable after construction: membership changes build a new
// Ring (see Gateway). The zero value is not usable; use NewRing.
//
// Determinism matters twice: a digest must route to the same node
// from any gateway process (no coordination, no persisted state), and
// across restarts (so blobs written yesterday are found today).
// Everything is therefore derived from SHA-256 of the node names —
// never from map iteration order or process-local state.
type Ring struct {
	vnodes int
	nodes  []string // sorted unique node names
	points []point  // sorted by (hash, node)
}

// point is one virtual node: a position on the [0, 2^64) circle owned
// by nodes[node].
type point struct {
	hash uint64
	node int32
}

// DefaultVNodes is the virtual-node count per physical node: enough
// that single-node membership changes remap close to the ideal 1/N of
// keys (the ring property test pins ≤ 1.5/N at this setting).
const DefaultVNodes = 128

// NewRing builds a ring over the given node names (base URLs).
// Duplicates are dropped; input order is irrelevant. vnodes <= 0
// selects DefaultVNodes.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes: vnodes,
		nodes:  uniq,
		points: make([]point, 0, len(uniq)*vnodes),
	}
	var buf [8]byte
	for i, n := range uniq {
		h := sha256.New()
		for v := 0; v < vnodes; v++ {
			h.Reset()
			h.Write([]byte(n))
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
			sum := h.Sum(nil)
			r.points = append(r.points, point{
				hash: binary.BigEndian.Uint64(sum),
				node: int32(i),
			})
		}
	}
	// Tie-break equal hashes by node index (itself derived from the
	// sorted names) so even a 2^-64 collision cannot make two rings
	// built from the same membership disagree.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Has reports whether a node is on the ring.
func (r *Ring) Has(name string) bool {
	i := sort.SearchStrings(r.nodes, name)
	return i < len(r.nodes) && r.nodes[i] == name
}

// WithNode returns a new ring with one node added, leaving the
// receiver untouched (copy-on-write: runtime membership changes swap
// ring pointers, they never mutate a ring a request may be routing
// on). The existing nodes' virtual-node hashes are reused — only the
// new node's vnodes are hashed — and the result is bit-identical to
// NewRing over the grown membership, so every gateway that hears of
// the change independently converges to the same Version.
func (r *Ring) WithNode(name string) *Ring {
	if r.Has(name) {
		return r
	}
	at := sort.SearchStrings(r.nodes, name)
	nodes := make([]string, 0, len(r.nodes)+1)
	nodes = append(nodes, r.nodes[:at]...)
	nodes = append(nodes, name)
	nodes = append(nodes, r.nodes[at:]...)
	nr := &Ring{
		vnodes: r.vnodes,
		nodes:  nodes,
		points: make([]point, 0, len(nodes)*r.vnodes),
	}
	// Old points survive with shifted indices; only `name` is hashed.
	for _, p := range r.points {
		if p.node >= int32(at) {
			p.node++
		}
		nr.points = append(nr.points, p)
	}
	h := sha256.New()
	var buf [8]byte
	for v := 0; v < r.vnodes; v++ {
		h.Reset()
		h.Write([]byte(name))
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
		sum := h.Sum(nil)
		nr.points = append(nr.points, point{
			hash: binary.BigEndian.Uint64(sum),
			node: int32(at),
		})
	}
	sort.Slice(nr.points, func(a, b int) bool {
		if nr.points[a].hash != nr.points[b].hash {
			return nr.points[a].hash < nr.points[b].hash
		}
		return nr.points[a].node < nr.points[b].node
	})
	return nr
}

// WithoutNode returns a new ring with one node removed (receiver
// untouched; see WithNode). Removing the last node yields an empty
// ring, on which every Lookup returns nil.
func (r *Ring) WithoutNode(name string) *Ring {
	if !r.Has(name) {
		return r
	}
	at := sort.SearchStrings(r.nodes, name)
	nodes := make([]string, 0, len(r.nodes)-1)
	nodes = append(nodes, r.nodes[:at]...)
	nodes = append(nodes, r.nodes[at+1:]...)
	nr := &Ring{
		vnodes: r.vnodes,
		nodes:  nodes,
		points: make([]point, 0, len(nodes)*r.vnodes),
	}
	// Dropping points preserves their sorted order; no re-sort needed.
	for _, p := range r.points {
		switch {
		case p.node == int32(at):
			continue
		case p.node > int32(at):
			p.node--
		}
		nr.points = append(nr.points, p)
	}
	return nr
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Version is a digest of the membership (names + vnode count): two
// rings with equal Version route identically. GET /cluster/nodes
// reports it so operators can confirm gateways agree.
func (r *Ring) Version() uint64 {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(r.vnodes))
	h.Write(buf[:])
	for _, n := range r.nodes {
		binary.BigEndian.PutUint64(buf[:], uint64(len(n)))
		h.Write(buf[:])
		h.Write([]byte(n))
	}
	return binary.BigEndian.Uint64(h.Sum(nil))
}

// keyPoint places a digest on the circle. The digest is already
// SHA-256 of the blob, so its first eight bytes are uniform — no
// re-hash needed.
func keyPoint(d repo.Digest) uint64 {
	return binary.BigEndian.Uint64(d[:8])
}

// Lookup returns the first n distinct nodes clockwise from the
// digest's point: the primary followed by its replicas. It returns
// fewer than n when the ring holds fewer physical nodes, and nil on
// an empty ring. The result is freshly allocated.
func (r *Ring) Lookup(d repo.Digest, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	key := keyPoint(d)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	out := make([]string, 0, n)
	taken := make(map[int32]bool, n)
	for i := 0; len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Owner returns the primary node for a digest ("" on an empty ring).
func (r *Ring) Owner(d repo.Digest) string {
	own := r.Lookup(d, 1)
	if len(own) == 0 {
		return ""
	}
	return own[0]
}
