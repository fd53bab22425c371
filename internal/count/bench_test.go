package count

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkCountTrees is the headline CountNFTA workload: the
// heavy-overlap automaton keeps the union estimator in its sampling
// loop (six redundant branches, each costing e.samples forest draws per
// size level), which is where a wider scheduler pays off.
func BenchmarkCountTrees(b *testing.B) {
	a := heavyOverlap()
	const n = 24
	for _, procs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := Trees(a, n, Options{Epsilon: 0.1, Trials: 3, Seed: int64(i + 1), MaxProcs: procs})
				if v.IsZero() {
					b.Fatal("estimate collapsed to zero")
				}
			}
		})
	}
}

// BenchmarkSampleTree exercises the sampler stack (canonical rejection,
// iterative forest construction, bitset acceptance checks).
func BenchmarkSampleTree(b *testing.B) {
	a := heavyOverlap()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := SampleTree(a, 16, Options{Epsilon: 0.2, Seed: int64(i + 1)}); tr == nil {
			b.Fatal("nil sample")
		}
	}
}

// oldTupleKey is the pre-rewrite interner key (strings.Builder +
// strconv per element), kept for the encoding comparison below.
func oldTupleKey(children []int) string {
	var sb strings.Builder
	for _, c := range children {
		sb.WriteString(strconv.Itoa(c))
		sb.WriteByte(',')
	}
	return sb.String()
}

func BenchmarkInternTupleKey(b *testing.B) {
	tuples := make([][]int, 64)
	for i := range tuples {
		t := make([]int, 1+i%5)
		for j := range t {
			t[j] = (i*131 + j*29) % 2048
		}
		tuples[i] = t
	}
	b.Run("strconv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchKeySink = oldTupleKey(tuples[i%len(tuples)])
		}
	})
	b.Run("varint", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendTupleKey(buf[:0], tuples[i%len(tuples)])
			benchKeySink = string(buf)
		}
	})
}

var benchKeySink string
