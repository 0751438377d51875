package devirt

import (
	"fmt"
	"testing"
)

// fuzzMaxConnections bounds one input's list: the reference drains a
// heap over the whole region per connection.
const fuzzMaxConnections = 96

// FuzzRouteMatchesReference decodes arbitrary bytes into a routing
// scene — byte 0 picks the shape, byte 1 the closed fabric edges, every
// following four bytes one connection (two little-endian I/O codes,
// reduced so null and out-of-range codes stay reachable) — and runs the
// decode protocol on a pooled router and on the heap reference, carrying
// on past failures as the scene test does. They must agree on every
// reservation's and every connection's error kind, and after every
// connection on all owners and configuration bits. Seeds are committed
// under testdata/fuzz.
func FuzzRouteMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 11, 0})
	f.Add([]byte{10, 1, 1, 0, 161, 0, 200, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := exactShapes[int(data[0])%len(exactShapes)]
		closedW, closedS := data[1]&1 != 0, data[1]&2 != 0
		data = data[2:]
		var list [][2]IOCode
		for ; len(data) >= 4 && len(list) < fuzzMaxConnections; data = data[4:] {
			codes := r.NumIOCodes() + 2
			list = append(list, [2]IOCode{
				IOCode((int(data[0]) | int(data[1])<<8) % codes),
				IOCode((int(data[2]) | int(data[3])<<8) % codes),
			})
		}

		opt, err := AcquireRouter(r, closedW, closedS)
		if err != nil {
			t.Fatal(err)
		}
		defer opt.Release()
		ref := newRefRouter(t, r, closedW, closedS)
		for _, p := range list {
			for _, code := range p {
				got, want := errKind(opt.Reserve(code)), errKind(ref.reserve(code))
				if got != want {
					t.Fatalf("%+v: Reserve(%d): %q, reference %q", r, code, got, want)
				}
			}
		}
		for k, p := range list {
			got := errKind(opt.RouteConnection(p[0], p[1]))
			want := errKind(ref.routeConnection(p[0], p[1]))
			if got != want {
				t.Fatalf("%+v connection %d (%d->%d): error %q, reference %q", r, k, p[0], p[1], got, want)
			}
			checkAgainstReference(t, opt, ref, fmt.Sprintf("%+v connection %d", r, k))
		}
	})
}
