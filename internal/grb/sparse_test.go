package grb

import (
	"math/rand"
	"runtime"
	"testing"
)

// sparseRandVector draws an n-long vector storing each position with
// probability density.
func sparseRandVector(rng *rand.Rand, n int, density float64) *Vector[int] {
	v := NewVector[int](n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.setSorted(i, rng.Intn(9)-4)
		}
	}
	return v
}

// allocBytes reports the bytes f allocates, averaged over 20 runs.
func allocBytes(f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < 20; k++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 20
}

// randomTuples draws n (row, col, value) triples over an nr×nc shape,
// duplicates included.
func randomTuples(rng *rand.Rand, n, nr, nc int) (rows, cols []Index, vals []int) {
	for k := 0; k < n; k++ {
		rows = append(rows, rng.Intn(nr))
		cols = append(cols, rng.Intn(nc))
		vals = append(vals, rng.Intn(9)-4)
	}
	return rows, cols, vals
}

// TestHyperMatchesCSR builds the same tuples as a hypersparse and as a CSR
// matrix and checks every read path agrees: element reads, row iteration,
// ReduceRows, VxM, and the conversion taken by whole-matrix kernels and
// by mutation.
func TestHyperMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plus := func(x, y int) int { return x + y }
	for trial := 0; trial < 200; trial++ {
		nr, nc := 1+rng.Intn(50), 1+rng.Intn(50)
		rows, cols, vals := randomTuples(rng, rng.Intn(30), nr, nc)
		h, err := HyperFromTuples(nr, nc, rows, cols, vals, plus)
		if err != nil {
			t.Fatal(err)
		}
		c, err := MatrixFromTuples(nr, nc, rows, cols, vals, plus)
		if err != nil {
			t.Fatal(err)
		}
		if h.hyper == nil || h.NVals() != c.NVals() {
			t.Fatalf("trial %d: hyper=%v NVals %d vs %d", trial, h.hyper != nil, h.NVals(), c.NVals())
		}
		if len(h.rowPtr) != len(h.hyper)+1 {
			t.Fatalf("trial %d: hypersparse row pointer has %d offsets for %d rows", trial, len(h.rowPtr), len(h.hyper))
		}
		for i := 0; i < nr; i++ {
			var hr, cr []int
			h.forRow(i, func(j Index, x int) { hr = append(hr, j, x) })
			c.forRow(i, func(j Index, x int) { cr = append(cr, j, x) })
			if len(hr) != len(cr) || h.rowNNZ(i) != c.rowNNZ(i) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, hr, cr)
			}
			for k := range hr {
				if hr[k] != cr[k] {
					t.Fatalf("trial %d row %d: %v vs %v", trial, i, hr, cr)
				}
			}
			for j := 0; j < nc; j++ {
				hx, hok, _ := h.GetElement(i, j)
				cx, cok, _ := c.GetElement(i, j)
				if hx != cx || hok != cok {
					t.Fatalf("trial %d (%d,%d): %d,%v vs %d,%v", trial, i, j, hx, hok, cx, cok)
				}
			}
		}
		hs, _ := ReduceRows(PlusMonoid[int](), Ident[int], h)
		cs, _ := ReduceRows(PlusMonoid[int](), Ident[int], c)
		if !vectorsEqual(hs, cs) || h.hyper == nil {
			t.Fatalf("trial %d: ReduceRows %v vs %v (hypersparse kept: %v)", trial, vecToMap(hs), vecToMap(cs), h.hyper != nil)
		}
		u := sparseRandVector(rand.New(rand.NewSource(int64(trial))), nr, 0.3)
		hv, _ := VxM(PlusTimes[int](), u, h)
		cv, _ := VxM(PlusTimes[int](), u, c)
		if !vectorsEqual(hv, cv) {
			t.Fatalf("trial %d: VxM %v vs %v", trial, vecToMap(hv), vecToMap(cv))
		}
		if trial%2 == 0 {
			// A mutation converts to CSR and is then seen by every read.
			i, j := rng.Intn(nr), rng.Intn(nc)
			if err := h.SetElement(i, j, 7); err != nil {
				t.Fatal(err)
			}
			if err := c.SetElement(i, j, 7); err != nil {
				t.Fatal(err)
			}
		}
		ht, ct := Transpose(h), Transpose(c)
		if h.hyper != nil || len(h.rowPtr) != nr+1 {
			t.Fatalf("trial %d: whole-matrix kernel left the matrix hypersparse", trial)
		}
		if got, want := matToMap(ht), matToMap(ct); len(got) != len(want) {
			t.Fatalf("trial %d: transpose %v vs %v", trial, got, want)
		} else {
			for k, x := range want {
				if got[k] != x {
					t.Fatalf("trial %d: transpose %v vs %v", trial, got, want)
				}
			}
		}
	}
}

func vectorsEqual(u, v *Vector[int]) bool {
	if u.n != v.n || len(u.ind) != len(v.ind) {
		return false
	}
	for p := range u.ind {
		if u.ind[p] != v.ind[p] || u.val[p] != v.val[p] {
			return false
		}
	}
	return true
}

// TestVxMSparseAndDenseAccumulatorsAgree runs VxM over operands whose work
// falls on both sides of the sparse/dense choice, with pending inserts and
// deletions in the touched rows, against a dense recomputation.
func TestVxMSparseAndDenseAccumulatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sawSparse, sawDense := false, false
	for trial := 0; trial < 300; trial++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(400)
		rows, cols, vals := randomTuples(rng, rng.Intn(4*nr), nr, nc)
		a, err := MatrixFromTuples(nr, nc, rows, cols, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(10); k > 0; k-- {
			if rng.Intn(2) == 0 {
				_ = a.SetElement(rng.Intn(nr), rng.Intn(nc), rng.Intn(9)-4)
			} else {
				_ = a.RemoveElement(rng.Intn(nr), rng.Intn(nc))
			}
		}
		u := sparseRandVector(rand.New(rand.NewSource(int64(trial))), nr, rng.Float64())
		work := 0
		for _, i := range u.ind {
			work += a.rowNNZ(i)
		}
		if sparseOutput(work, nc) {
			sawSparse = true
		} else {
			sawDense = true
		}
		got, err := VxM(PlusTimes[int](), u, a)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[Index]int)
		for p, i := range u.ind {
			a.forRow(i, func(j Index, x int) { want[j] += u.val[p] * x })
		}
		gm := vecToMap(got)
		if len(gm) != len(want) {
			t.Fatalf("trial %d: VxM has %d entries, want %d", trial, len(gm), len(want))
		}
		for j, x := range want {
			if gm[j] != x {
				t.Fatalf("trial %d: w[%d] = %d, want %d", trial, j, gm[j], x)
			}
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("accumulator paths exercised: sparse %v, dense %v", sawSparse, sawDense)
	}
}

// TestSparseKernelsAllocateByDelta pins that the delta kernels of the
// incremental Q1 step allocate by their sparse operands, not by the
// dimension: a hypersparse build, its row reduction and a VxM over a few
// rows of a big matrix cost the same bytes at 1k and at 1M rows.
func TestSparseKernelsAllocateByDelta(t *testing.T) {
	bytesAt := func(n int) float64 {
		rows := []Index{n / 3, n / 2, n / 3}
		cols := []Index{1, 2, 3}
		trues := []bool{true, true, true}
		big := NewMatrix[bool](n, n)
		for _, i := range rows {
			_ = big.SetElement(i, i, true)
		}
		big.Wait()
		u, _ := VectorFromTuples(n, rows[:2], []int{1, 2}, nil)
		return allocBytes(func() {
			d, _ := HyperFromTuples(n, n, rows, cols, trues, nil)
			_, _ = ReduceRows(PlusMonoid[int](), One[bool, int], d)
			_, _ = VxM(PlusFirst[int, bool](), u, big)
		})
	}
	small, large := bytesAt(1<<10), bytesAt(1<<20)
	if large > small*1.5 {
		t.Fatalf("delta kernels allocate %.0f B at 1M rows vs %.0f B at 1k", large, small)
	}
}

// TestAccumVInPlace checks w ⊕= u against a map oracle on full and sparse
// targets, and that accumulating into a full vector allocates nothing.
func TestAccumVInPlace(t *testing.T) {
	plus := func(x, y int) int { return x + y }
	for trial := 0; trial < 100; trial++ {
		n := 1 + trial%37
		w := sparseRandVector(rand.New(rand.NewSource(int64(trial))), n, 0.5)
		if trial%2 == 0 {
			dense := make([]int, n)
			w.Iterate(func(i Index, x int) bool { dense[i] = x; return true })
			w = VectorFromSlice(dense)
		}
		u := sparseRandVector(rand.New(rand.NewSource(int64(trial+1000))), n, 0.3)
		want := vecToMap(w)
		for i, x := range vecToMap(u) {
			want[i] += x
		}
		full := w.full()
		if err := AccumV(w, u, plus); err != nil {
			t.Fatal(err)
		}
		got := vecToMap(w)
		if len(got) != len(want) || w.full() != (full || len(want) == n) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
		for i, x := range want {
			if got[i] != x {
				t.Fatalf("trial %d: w[%d] = %d, want %d", trial, i, got[i], x)
			}
		}
	}
	w := VectorFromSlice(make([]int, 1<<16))
	u, _ := VectorFromTuples(1<<16, []Index{5, 70, 60000}, []int{1, -2, 3}, nil)
	if allocs := testing.AllocsPerRun(100, func() { _ = AccumV(w, u, plus) }); allocs != 0 {
		t.Fatalf("AccumV into a full vector allocates %.1f times", allocs)
	}
	if err := AccumV(w, NewVector[int](3), plus); err == nil {
		t.Fatal("AccumV accepted a size mismatch")
	}
}

// TestRowGrowthAfterWaitDoesNotAllocate pins the spare row-pointer
// capacity Wait leaves: growing a matrix by one row right after an
// assembly appends in place. Each measured run grows a different matrix,
// each just assembled.
func TestRowGrowthAfterWaitDoesNotAllocate(t *testing.T) {
	const runs = 100
	ms := make([]*Matrix[bool], runs+1) // AllocsPerRun adds a warm-up run
	for k := range ms {
		a := NewMatrix[bool](4096, 4096)
		if err := a.SetElement(k, 7, true); err != nil {
			t.Fatal(err)
		}
		a.Wait()
		ms[k] = a
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		a := ms[next]
		next++
		if err := a.Resize(a.NRows()+1, a.NCols()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one-row growth after Wait allocates %.2f times per run", allocs)
	}
}
