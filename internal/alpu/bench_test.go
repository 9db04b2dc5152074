package alpu

import "testing"

// BenchmarkMicro exposes the MicroCases grid (microbench_test.go) to go
// test -bench; the CI bench gate consumes these cases.
func BenchmarkMicro(b *testing.B) {
	for _, c := range MicroCases() {
		b.Run(c.Name, c.Bench)
	}
}
