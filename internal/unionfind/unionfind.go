// Package unionfind provides a plain disjoint-set structure with path
// compression and union by size, used for electrical connectivity
// extraction from switch configurations.
package unionfind

// UF is a disjoint-set forest over the integers [0, n).
type UF struct {
	parent []int32
	size   []int32
}

// New returns n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets of a and b and reports whether they were
// previously distinct.
func (u *UF) Union(a, b int) bool {
	ra, rb := int32(u.Find(a)), int32(u.Find(b))
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// SetSize returns the size of x's set.
func (u *UF) SetSize(x int) int { return int(u.size[u.Find(x)]) }
