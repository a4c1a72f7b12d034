package grb

// Reductions (GrB_reduce). The cast argument plays the role of the implicit
// typecast in the C API: GraphBLAS reduces a BOOL matrix with a PLUS_INT64
// monoid by casting true→1; here the caster is explicit. Use Ident for
// same-type reductions and One to count entries.

// Ident is the identity cast for same-typed reductions.
func Ident[T any](x T) T { return x }

// One maps every element to 1, turning a plus-reduction into a count.
func One[A any, C Number](_ A) C { return 1 }

// ReduceRows reduces each matrix row to a scalar, producing a sparse vector
// with entries only for non-empty rows: w_i = ⊕_j cast(A_ij).
// (GrB_Matrix_reduce_Monoid to a vector; row-wise, as in the C API default.)
// A hypersparse matrix is reduced over its row list in O(nnz), so the
// result costs nothing by nrows; a CSR matrix is reduced in parallel
// through dense scratch.
func ReduceRows[A, C any](m Monoid[C], cast func(A) C, a *Matrix[A]) (*Vector[C], error) {
	reduceRow := func(lo, hi int) C {
		acc := m.Identity
		for p := lo; p < hi; p++ {
			acc = m.Op(acc, cast(a.val[p]))
		}
		return acc
	}
	w := NewVector[C](a.nrows)
	if a.hyper != nil {
		w.ind = make([]Index, 0, len(a.hyper))
		w.val = make([]C, 0, len(a.hyper))
		for k, i := range a.hyper {
			w.setSorted(i, reduceRow(a.rowPtr[k], a.rowPtr[k+1]))
		}
		return w, nil
	}
	a.Wait()
	val := make([]C, a.nrows)
	hit := make([]bool, a.nrows)
	parallelRanges(a.nrows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if a.rowPtr[i] == a.rowPtr[i+1] {
				continue
			}
			val[i] = reduceRow(a.rowPtr[i], a.rowPtr[i+1])
			hit[i] = true
		}
	})
	for i := 0; i < a.nrows; i++ {
		if hit[i] {
			w.setSorted(i, val[i])
		}
	}
	return w, nil
}

// ReduceCols reduces each matrix column to a scalar: w_j = ⊕_i cast(A_ij).
// Equivalent to ReduceRows over the transpose, without materializing it.
func ReduceCols[A, C any](m Monoid[C], cast func(A) C, a *Matrix[A]) (*Vector[C], error) {
	a.Wait()
	val := make([]C, a.ncols)
	hit := make([]bool, a.ncols)
	for p, j := range a.colInd {
		if !hit[j] {
			hit[j] = true
			val[j] = cast(a.val[p])
		} else {
			val[j] = m.Op(val[j], cast(a.val[p]))
		}
	}
	w := NewVector[C](a.ncols)
	for j := 0; j < a.ncols; j++ {
		if hit[j] {
			w.setSorted(j, val[j])
		}
	}
	return w, nil
}

// ReduceVectorToScalar folds all stored elements of u into a scalar,
// starting from the monoid identity.
func ReduceVectorToScalar[A, C any](m Monoid[C], cast func(A) C, u *Vector[A]) C {
	acc := m.Identity
	for _, x := range u.val {
		acc = m.Op(acc, cast(x))
	}
	return acc
}

// ReduceMatrixToScalar folds all stored elements of a into a scalar. The
// reduction runs in parallel over row chunks and relies on the monoid's
// associativity and commutativity to combine per-chunk partials.
func ReduceMatrixToScalar[A, C any](m Monoid[C], cast func(A) C, a *Matrix[A]) C {
	a.Wait()
	bounds := parallelChunks(a.nrows)
	partial := make([]C, len(bounds)-1)
	runChunks(bounds, func(c, lo, hi int) {
		acc := m.Identity
		for p := a.rowPtr[lo]; p < a.rowPtr[hi]; p++ {
			acc = m.Op(acc, cast(a.val[p]))
		}
		partial[c] = acc
	})
	acc := m.Identity
	for _, x := range partial {
		acc = m.Op(acc, x)
	}
	return acc
}
