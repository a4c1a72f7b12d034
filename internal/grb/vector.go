package grb

import "sort"

// Vector is a sparse vector of logical size n storing only its non-empty
// positions, kept sorted by index (GrB_Vector). The zero Vector is empty
// with size 0; use NewVector for a sized one.
type Vector[T any] struct {
	n   int
	ind []Index // sorted ascending, unique
	val []T
}

// NewVector returns an empty sparse vector of logical size n.
func NewVector[T any](n int) *Vector[T] {
	if n < 0 {
		panic(invalidErrf("NewVector: negative size %d", n))
	}
	return &Vector[T]{n: n}
}

// VectorFromTuples builds a vector from (index, value) pairs (GrB_build).
// Duplicate indices are combined with dup; if dup is nil the last value
// wins, matching SuiteSparse's GxB_IGNORE_DUP behaviour.
func VectorFromTuples[T any](n int, ind []Index, val []T, dup func(T, T) T) (*Vector[T], error) {
	if len(ind) != len(val) {
		return nil, invalidErrf("VectorFromTuples: %d indices but %d values", len(ind), len(val))
	}
	v := NewVector[T](n)
	if len(ind) == 0 {
		return v, nil
	}
	perm := make([]int, len(ind))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return ind[perm[a]] < ind[perm[b]] })
	v.ind = make([]Index, 0, len(ind))
	v.val = make([]T, 0, len(val))
	for _, p := range perm {
		i, x := ind[p], val[p]
		if i < 0 || i >= n {
			return nil, boundsErrf("VectorFromTuples: index %d outside [0,%d)", i, n)
		}
		if k := len(v.ind); k > 0 && v.ind[k-1] == i {
			if dup != nil {
				v.val[k-1] = dup(v.val[k-1], x)
			} else {
				v.val[k-1] = x
			}
			continue
		}
		v.ind = append(v.ind, i)
		v.val = append(v.val, x)
	}
	return v, nil
}

// Size reports the logical dimension of the vector.
func (v *Vector[T]) Size() int { return v.n }

// NVals reports the number of stored elements.
func (v *Vector[T]) NVals() int { return len(v.ind) }

// find returns the storage position of index i and whether it is present.
func (v *Vector[T]) find(i Index) (int, bool) {
	p := sort.SearchInts(v.ind, i)
	return p, p < len(v.ind) && v.ind[p] == i
}

// full reports whether every position stores an element (SuiteSparse's
// full format). A full vector's element i sits at storage position i, so
// in-place kernels (AccumV) address it directly; growing it with Resize
// leaves it sparse until the new positions are assigned.
func (v *Vector[T]) full() bool { return len(v.ind) == v.n }

// GetElement returns the stored value at position i, and whether one exists.
func (v *Vector[T]) GetElement(i Index) (T, bool, error) {
	var zero T
	if i < 0 || i >= v.n {
		return zero, false, boundsErrf("GetElement: index %d outside [0,%d)", i, v.n)
	}
	if p, ok := v.find(i); ok {
		return v.val[p], true, nil
	}
	return zero, false, nil
}

// SetElement stores x at position i, overwriting any existing element.
func (v *Vector[T]) SetElement(i Index, x T) error {
	if i < 0 || i >= v.n {
		return boundsErrf("SetElement: index %d outside [0,%d)", i, v.n)
	}
	p, ok := v.find(i)
	if ok {
		v.val[p] = x
		return nil
	}
	v.ind = append(v.ind, 0)
	v.val = append(v.val, x)
	copy(v.ind[p+1:], v.ind[p:])
	copy(v.val[p+1:], v.val[p:])
	v.ind[p] = i
	v.val[p] = x
	return nil
}

// RemoveElement deletes the element at position i if present.
func (v *Vector[T]) RemoveElement(i Index) error {
	if i < 0 || i >= v.n {
		return boundsErrf("RemoveElement: index %d outside [0,%d)", i, v.n)
	}
	if p, ok := v.find(i); ok {
		v.ind = append(v.ind[:p], v.ind[p+1:]...)
		v.val = append(v.val[:p], v.val[p+1:]...)
	}
	return nil
}

// ExtractTuples returns copies of the stored (index, value) pairs in index
// order (GrB_extractTuples).
func (v *Vector[T]) ExtractTuples() ([]Index, []T) {
	ind := make([]Index, len(v.ind))
	val := make([]T, len(v.val))
	copy(ind, v.ind)
	copy(val, v.val)
	return ind, val
}

// Iterate calls f for every stored element in index order until f returns
// false.
func (v *Vector[T]) Iterate(f func(i Index, x T) bool) {
	for p, i := range v.ind {
		if !f(i, v.val[p]) {
			return
		}
	}
}

// Resize changes the logical size, dropping elements at positions >= n
// when shrinking (GrB_Vector_resize).
func (v *Vector[T]) Resize(n int) error {
	if n < 0 {
		return invalidErrf("Resize: negative size %d", n)
	}
	if n < v.n {
		p := sort.SearchInts(v.ind, n)
		v.ind = v.ind[:p]
		v.val = v.val[:p]
	}
	v.n = n
	return nil
}

// Clear removes all stored elements, keeping the logical size.
func (v *Vector[T]) Clear() {
	v.ind = v.ind[:0]
	v.val = v.val[:0]
}

// Clone returns a deep copy.
func (v *Vector[T]) Clone() *Vector[T] {
	w := &Vector[T]{n: v.n, ind: make([]Index, len(v.ind)), val: make([]T, len(v.val))}
	copy(w.ind, v.ind)
	copy(w.val, v.val)
	return w
}

// VectorFromDense builds a vector of the same length as dense, storing every
// position for which keep reports true. It is a convenience for tests and
// algorithms that compute into dense scratch space.
func VectorFromDense[T any](dense []T, keep func(T) bool) *Vector[T] {
	v := NewVector[T](len(dense))
	for i, x := range dense {
		if keep(x) {
			v.ind = append(v.ind, i)
			v.val = append(v.val, x)
		}
	}
	return v
}

// VectorFromSlice builds a fully dense vector: position i holds vals[i] for
// every i. Iterative algorithms (FastSV, PageRank) use it to feed dense
// state vectors into sparse kernels.
func VectorFromSlice[T any](vals []T) *Vector[T] {
	v := NewVector[T](len(vals))
	v.ind = make([]Index, len(vals))
	v.val = make([]T, len(vals))
	for i := range vals {
		v.ind[i] = i
		v.val[i] = vals[i]
	}
	return v
}

// setSorted appends an element known to have a strictly larger index than
// all stored ones. Internal fast path for kernels producing sorted output.
func (v *Vector[T]) setSorted(i Index, x T) {
	v.ind = append(v.ind, i)
	v.val = append(v.val, x)
}
