package grb

import (
	"slices"
	"sort"
)

// MxV computes w = A ⊕.⊗ u (GrB_mxv): w_i = ⊕_j mul(A_ij, u_j) over the
// structural intersection of row i and u. The vector is gathered into dense
// scratch once; rows are processed in parallel. Cost: O(nnz(A) + n).
func MxV[A, B, C any](s Semiring[A, B, C], a *Matrix[A], u *Vector[B]) (*Vector[C], error) {
	if a.ncols != u.n {
		return nil, dimErrf("MxV: matrix is %d×%d but vector has size %d", a.nrows, a.ncols, u.n)
	}
	a.Wait()
	uval := make([]B, a.ncols)
	upresent := make([]bool, a.ncols)
	for p, i := range u.ind {
		uval[i] = u.val[p]
		upresent[i] = true
	}
	rowInd := make([]Index, a.nrows)
	rowVal := make([]C, a.nrows)
	hit := make([]bool, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := s.Add.Identity
			any := false
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				j := a.colInd[p]
				if upresent[j] {
					acc = s.Add.Op(acc, s.Mul(a.val[p], uval[j]))
					any = true
				}
			}
			if any {
				rowInd[i] = i
				rowVal[i] = acc
				hit[i] = true
			}
		}
	})
	w := NewVector[C](a.nrows)
	for i := 0; i < a.nrows; i++ {
		if hit[i] {
			w.setSorted(i, rowVal[i])
		}
	}
	return w, nil
}

// VxM computes wᵀ = uᵀ ⊕.⊗ A (GrB_vxm): w_j = ⊕_i mul(u_i, A_ij). This is
// the sparse "pull from few rows" kernel: it touches only the rows of A
// indexed by u's stored elements and never assembles pending tuples of
// untouched rows, so its cost is O(Σ_{i ∈ supp(u)} nnz(A(i,:))) — the
// workhorse of the incremental algorithms. When that work is small
// against ncols (see sparseOutput), the products are collected and
// sorted, so neither time nor allocation depends on ncols; otherwise they
// accumulate in dense scratch of ncols.
func VxM[A, B, C any](s Semiring[A, B, C], u *Vector[A], a *Matrix[B]) (*Vector[C], error) {
	if u.n != a.nrows {
		return nil, dimErrf("VxM: vector has size %d but matrix is %d×%d", u.n, a.nrows, a.ncols)
	}
	work := 0
	for _, i := range u.ind {
		lo, hi := a.rowRange(i)
		work += hi - lo + len(a.pending[i])
	}
	w := NewVector[C](a.ncols)
	if sparseOutput(work, a.ncols) {
		prods := make([]product[C], 0, work)
		for p, i := range u.ind {
			ux := u.val[p]
			a.forRow(i, func(j Index, x B) {
				prods = append(prods, product[C]{j, s.Mul(ux, x)})
			})
		}
		// Stable, so each column folds its products in row order, as the
		// dense path does.
		slices.SortStableFunc(prods, func(x, y product[C]) int { return x.j - y.j })
		for k, pr := range prods {
			if k > 0 && prods[k-1].j == pr.j {
				last := len(w.val) - 1
				w.val[last] = s.Add.Op(w.val[last], pr.x)
				continue
			}
			w.setSorted(pr.j, pr.x)
		}
		return w, nil
	}
	acc := make([]C, a.ncols)
	present := make([]bool, a.ncols)
	var touched []Index
	for p, i := range u.ind {
		ux := u.val[p]
		a.forRow(i, func(j Index, x B) {
			if !present[j] {
				present[j] = true
				acc[j] = s.Mul(ux, x)
				touched = append(touched, j)
			} else {
				acc[j] = s.Add.Op(acc[j], s.Mul(ux, x))
			}
		})
	}
	sort.Ints(touched)
	w.ind = make([]Index, 0, len(touched))
	w.val = make([]C, 0, len(touched))
	for _, j := range touched {
		w.setSorted(j, acc[j])
	}
	return w, nil
}

// sparseOutput reports whether VxM, producing at most work entries of an
// n-long result, should accumulate them sparsely (collect, then sort)
// rather than in dense scratch of n — SuiteSparse's choice between a hash
// and a Gustavson accumulator, made here from the work bound alone.
func sparseOutput(work, n int) bool { return 16*work < n }

// product is one term u_i ⊗ A_ij of a sparse VxM, bound for column j.
type product[C any] struct {
	j Index
	x C
}

// MxVMasked is MxV restricted to the structural mask: only positions present
// in mask (or absent, when complement is true) are computed and stored.
func MxVMasked[A, B, C, M any](s Semiring[A, B, C], a *Matrix[A], u *Vector[B], mask *Vector[M], complement bool) (*Vector[C], error) {
	w, err := MxV(s, a, u)
	if err != nil {
		return nil, err
	}
	return MaskV(w, mask, complement)
}
