package grb

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: not tied to a table or figure, but they pin the
// cost model the design notes in README.md rely on (O(nnz) whole-matrix kernels,
// O(touched rows) VxM, row-local pending SetElement, O(nnz + p log p) Wait).

func benchMatrix(n, nnz int, seed int64) *Matrix[int] {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Index, nnz)
	cols := make([]Index, nnz)
	vals := make([]int, nnz)
	for k := 0; k < nnz; k++ {
		rows[k] = rng.Intn(n)
		cols[k] = rng.Intn(n)
		vals[k] = rng.Intn(100)
	}
	a, err := MatrixFromTuples(n, n, rows, cols, vals, Plus[int])
	if err != nil {
		panic(err)
	}
	return a
}

func BenchmarkMxV(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		a := benchMatrix(n, 8*n, 1)
		u := NewVector[int](n)
		rng := rand.New(rand.NewSource(2))
		for k := 0; k < n/2; k++ {
			Must0(u.SetElement(rng.Intn(n), 1))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MxV(PlusTimes[int](), a, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVxMSparseVector(b *testing.B) {
	// The incremental hot path: a 5-element vector against a large matrix
	// must cost O(5 rows), independent of nnz.
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		a := benchMatrix(n, 8*n, 3)
		u := NewVector[int](n)
		for k := 0; k < 5; k++ {
			Must0(u.SetElement(k*(n/7), 1))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := VxM(PlusTimes[int](), u, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMxM(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		a := benchMatrix(n, 8*n, 4)
		c := benchMatrix(n, 8*n, 5)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MxM(PlusTimes[int](), a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSetElementPending(b *testing.B) {
	a := benchMatrix(100_000, 800_000, 6)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SetElement(rng.Intn(100_000), rng.Intn(100_000), i)
	}
}

func BenchmarkWaitAfterSmallBurst(b *testing.B) {
	// Assembly cost of a 100-tuple burst into matrices of growing size.
	for _, nnz := range []int{100_000, 1_000_000} {
		n := nnz / 8
		b.Run(fmt.Sprintf("nnz%d", nnz), func(b *testing.B) {
			a := benchMatrix(n, nnz, 8)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < 100; k++ {
					_ = a.SetElement(rng.Intn(n), rng.Intn(n), k)
				}
				b.StartTimer()
				a.Wait()
			}
		})
	}
}

func BenchmarkEWiseAddV(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		u := NewVector[int](n)
		v := NewVector[int](n)
		rng := rand.New(rand.NewSource(10))
		for k := 0; k < n/2; k++ {
			Must0(u.SetElement(rng.Intn(n), 1))
			Must0(v.SetElement(rng.Intn(n), 2))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EWiseAddV(Plus[int], u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReduceRows(b *testing.B) {
	a := benchMatrix(100_000, 800_000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceRows(PlusMonoid[int](), Ident[int], a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	a := benchMatrix(100_000, 800_000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transpose(a)
	}
}

func BenchmarkExtractSubmatrix(b *testing.B) {
	// The Q2 per-comment pattern: small induced subgraphs from a large
	// symmetric matrix.
	n := 100_000
	a := benchMatrix(n, 8*n, 13)
	rng := rand.New(rand.NewSource(14))
	idx := make([]Index, 32)
	seen := map[Index]struct{}{}
	for k := 0; k < len(idx); {
		i := rng.Intn(n)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		idx[k] = i
		k++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractSubmatrix(a, idx, idx); err != nil {
			b.Fatal(err)
		}
	}
}
