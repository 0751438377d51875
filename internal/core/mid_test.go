package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/midset"
)

// BenchmarkParseMid parses the bench's 18 mid containers once per
// iteration: the core.parse_us layer of a cold load, and — through
// B/op and allocs/op — what one stored container pins in the heap.
func BenchmarkParseMid(b *testing.B) {
	cs, err := midset.Containers()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if _, err := core.Parse(c.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
