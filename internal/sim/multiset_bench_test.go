package sim

import "testing"

// BenchmarkSameMultiset measures the node-multiset comparison on the shapes
// the simulator actually sees: repacks usually hand a job back the exact
// node list it already held (the element-wise equality fast path), small
// gangs take the quadratic path, and only large permuted placements fall
// through to comparing sorted copies.
func BenchmarkSameMultiset(b *testing.B) {
	perm := func(n, rot int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = (i + rot) % n
		}
		return s
	}
	cases := []struct {
		name string
		x, y []int
	}{
		{"equal4", perm(4, 0), perm(4, 0)},
		{"permuted4", perm(4, 0), perm(4, 1)},
		{"equal32", perm(32, 0), perm(32, 0)},
		{"permuted32", perm(32, 0), perm(32, 7)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !SameMultiset(c.x, c.y) {
					b.Fatal("multisets should match")
				}
			}
		})
	}
}
