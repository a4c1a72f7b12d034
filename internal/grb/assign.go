package grb

import "sort"

// Assign (GrB_assign): write a sparse object into a region of another,
// selected by index lists, optionally through a structural mask and with an
// accumulator. Positions of the target outside the assigned region are
// untouched (no GrB_REPLACE semantics; filter beforehand with MaskV/MaskM
// if replacement is needed).

// AssignV writes u into w at positions I: w(I[k]) = u(k) for every stored
// element k of u. Existing elements at assigned positions are overwritten;
// when accum is non-nil they are combined as accum(old, new). I must have
// one target index per position of u (len(I) == u.Size()) without
// duplicates.
func AssignV[T any](w *Vector[T], I []Index, u *Vector[T], accum func(T, T) T) error {
	if len(I) != u.n {
		return dimErrf("AssignV: %d indices for a vector of size %d", len(I), u.n)
	}
	seen := make(map[Index]struct{}, len(I))
	for _, i := range I {
		if i < 0 || i >= w.n {
			return boundsErrf("AssignV: target index %d outside [0,%d)", i, w.n)
		}
		if _, dup := seen[i]; dup {
			return invalidErrf("AssignV: duplicate target index %d", i)
		}
		seen[i] = struct{}{}
	}
	for p, k := range u.ind {
		i := I[k]
		x := u.val[p]
		if accum != nil {
			if old, ok, _ := w.GetElement(i); ok {
				x = accum(old, x)
			}
		}
		if err := w.SetElement(i, x); err != nil {
			return err
		}
	}
	return nil
}

// AccumV accumulates u into w in place: w(i) = accum(w(i), u(i)) for every
// stored u(i), and w(i) = u(i) where w has no element (GrB_Vector_assign
// with GrB_ALL and an accumulator, w ⊕= u). On a full w (every position
// stored) each position is addressed directly, so the cost is O(nvals(u))
// whatever w's size; otherwise each element is found by binary search and
// an absent one is inserted.
func AccumV[T any](w, u *Vector[T], accum func(T, T) T) error {
	if w.n != u.n {
		return dimErrf("AccumV: %d vs %d", w.n, u.n)
	}
	if w.full() {
		for p, i := range u.ind {
			w.val[i] = accum(w.val[i], u.val[p])
		}
		return nil
	}
	for p, i := range u.ind {
		if q, ok := w.find(i); ok {
			w.val[q] = accum(w.val[q], u.val[p])
		} else if err := w.SetElement(i, u.val[p]); err != nil {
			return err
		}
	}
	return nil
}

// AssignVScalar writes the scalar x at every position listed in I,
// accumulating with accum when non-nil (GrB_Vector_assign_Scalar).
func AssignVScalar[T any](w *Vector[T], I []Index, x T, accum func(T, T) T) error {
	for _, i := range I {
		if i < 0 || i >= w.n {
			return boundsErrf("AssignVScalar: index %d outside [0,%d)", i, w.n)
		}
	}
	for _, i := range I {
		v := x
		if accum != nil {
			if old, ok, _ := w.GetElement(i); ok {
				v = accum(old, x)
			}
		}
		if err := w.SetElement(i, v); err != nil {
			return err
		}
	}
	return nil
}

// AssignVMasked is AssignV restricted to a structural mask over the target:
// only assignments landing on positions present in mask (or absent, under
// complement) take effect.
func AssignVMasked[T, M any](w *Vector[T], mask *Vector[M], complement bool, I []Index, u *Vector[T], accum func(T, T) T) error {
	if mask.n != w.n {
		return dimErrf("AssignVMasked: mask size %d vs target %d", mask.n, w.n)
	}
	if len(I) != u.n {
		return dimErrf("AssignVMasked: %d indices for a vector of size %d", len(I), u.n)
	}
	for p, k := range u.ind {
		i := I[k]
		if i < 0 || i >= w.n {
			return boundsErrf("AssignVMasked: target index %d outside [0,%d)", i, w.n)
		}
		_, inMask := mask.find(i)
		if inMask == complement {
			continue
		}
		x := u.val[p]
		if accum != nil {
			if old, ok, _ := w.GetElement(i); ok {
				x = accum(old, x)
			}
		}
		if err := w.SetElement(i, x); err != nil {
			return err
		}
	}
	return nil
}

// AssignM writes a into c at the region (I, J): c(I[r], J[k]) = a(r, k) for
// every stored element of a. Duplicate indices are rejected; accum combines
// with existing elements when non-nil.
func AssignM[T any](c *Matrix[T], I, J []Index, a *Matrix[T], accum func(T, T) T) error {
	if len(I) != a.nrows || len(J) != a.ncols {
		return dimErrf("AssignM: region %d×%d for a matrix of shape %d×%d",
			len(I), len(J), a.nrows, a.ncols)
	}
	if err := checkUniqueIn(I, c.nrows, "AssignM row"); err != nil {
		return err
	}
	if err := checkUniqueIn(J, c.ncols, "AssignM column"); err != nil {
		return err
	}
	a.Wait()
	for r := 0; r < a.nrows; r++ {
		for p := a.rowPtr[r]; p < a.rowPtr[r+1]; p++ {
			i, j := I[r], J[a.colInd[p]]
			x := a.val[p]
			if accum != nil {
				if old, ok, _ := c.GetElement(i, j); ok {
					x = accum(old, x)
				}
			}
			if err := c.SetElement(i, j, x); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkUniqueIn validates an index list: in range and duplicate-free.
func checkUniqueIn(I []Index, n int, what string) error {
	if len(I) > 16 {
		seen := make(map[Index]struct{}, len(I))
		for _, i := range I {
			if i < 0 || i >= n {
				return boundsErrf("%s index %d outside [0,%d)", what, i, n)
			}
			if _, dup := seen[i]; dup {
				return invalidErrf("%s index %d duplicated", what, i)
			}
			seen[i] = struct{}{}
		}
		return nil
	}
	for k, i := range I {
		if i < 0 || i >= n {
			return boundsErrf("%s index %d outside [0,%d)", what, i, n)
		}
		for _, j := range I[:k] {
			if i == j {
				return invalidErrf("%s index %d duplicated", what, i)
			}
		}
	}
	return nil
}

// Range returns the index list [lo, hi) — the Go spelling of GrB_ALL
// sub-ranges for extract/assign calls.
func Range(lo, hi Index) []Index {
	if hi < lo {
		return nil
	}
	out := make([]Index, hi-lo)
	for k := range out {
		out[k] = lo + k
	}
	return out
}

// All returns [0, n), the full GrB_ALL index list.
func All(n int) []Index { return Range(0, n) }

// sortedUnique reports whether ind is strictly increasing (diagnostic
// helper for tests and debug assertions).
func sortedUnique(ind []Index) bool {
	return sort.SliceIsSorted(ind, func(a, b int) bool { return ind[a] < ind[b] }) &&
		func() bool {
			for k := 1; k < len(ind); k++ {
				if ind[k] == ind[k-1] {
					return false
				}
			}
			return true
		}()
}
