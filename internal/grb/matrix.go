package grb

import "sort"

// Matrix is a sparse matrix in CSR (compressed sparse row) form with a
// SuiteSparse-style pending-tuple buffer (GrB_Matrix). SetElement appends to
// the pending buffer after an existence check of the one row it touches;
// whole-matrix kernels assemble pending tuples into the CSR arrays first
// (Wait), while row-sparse kernels (VxM, row extraction) merge pending
// entries of only the touched rows on the fly, so small incremental updates
// never pay a full O(nnz) rebuild. The stored-element count is kept current
// as tuples are buffered, so NVals never assembles either.
type Matrix[T any] struct {
	nrows, ncols int
	rowPtr       []int
	colInd       []Index
	val          []T

	pending map[Index][]matEntry[T] // row → appended entries, insertion order
	npend   int
	// ndelta is the net number of stored elements the pending tuples add
	// (positive) or remove (negative) relative to the CSR arrays.
	ndelta int
}

type matEntry[T any] struct {
	col Index
	val T
	del bool // tombstone: a pending deletion (SuiteSparse's "zombie")
}

// NewMatrix returns an empty nrows×ncols sparse matrix.
func NewMatrix[T any](nrows, ncols int) *Matrix[T] {
	if nrows < 0 || ncols < 0 {
		panic(invalidErrf("NewMatrix: negative shape %d×%d", nrows, ncols))
	}
	return &Matrix[T]{nrows: nrows, ncols: ncols, rowPtr: make([]int, nrows+1)}
}

// MatrixFromTuples builds a matrix from (row, col, value) triples
// (GrB_build). Duplicates are combined with dup; nil dup keeps the last.
func MatrixFromTuples[T any](nrows, ncols int, rows, cols []Index, vals []T, dup func(T, T) T) (*Matrix[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, invalidErrf("MatrixFromTuples: tuple slices of unequal length %d/%d/%d",
			len(rows), len(cols), len(vals))
	}
	a := NewMatrix[T](nrows, ncols)
	if len(rows) == 0 {
		return a, nil
	}
	for k := range rows {
		if rows[k] < 0 || rows[k] >= nrows || cols[k] < 0 || cols[k] >= ncols {
			return nil, boundsErrf("MatrixFromTuples: entry (%d,%d) outside %d×%d",
				rows[k], cols[k], nrows, ncols)
		}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		px, py := perm[x], perm[y]
		if rows[px] != rows[py] {
			return rows[px] < rows[py]
		}
		return cols[px] < cols[py]
	})
	a.colInd = make([]Index, 0, len(rows))
	a.val = make([]T, 0, len(rows))
	counts := make([]int, nrows)
	prevI, prevJ := -1, -1
	for _, p := range perm {
		i, j, x := rows[p], cols[p], vals[p]
		if i == prevI && j == prevJ { // duplicates are adjacent after the sort
			k := len(a.val) - 1
			if dup != nil {
				a.val[k] = dup(a.val[k], x)
			} else {
				a.val[k] = x
			}
			continue
		}
		a.colInd = append(a.colInd, j)
		a.val = append(a.val, x)
		counts[i]++
		prevI, prevJ = i, j
	}
	for i := 0; i < nrows; i++ {
		a.rowPtr[i+1] = a.rowPtr[i] + counts[i]
	}
	return a, nil
}

// NRows reports the number of rows.
func (a *Matrix[T]) NRows() int { return a.nrows }

// NCols reports the number of columns.
func (a *Matrix[T]) NCols() int { return a.ncols }

// NVals reports the number of stored elements, pending tuples included. It
// costs O(1) and, unlike GrB_Matrix_nvals, does not imply a wait: the
// pending tuples stay pending.
func (a *Matrix[T]) NVals() int { return len(a.colInd) + a.ndelta }

// NPending reports the number of unassembled pending tuples.
func (a *Matrix[T]) NPending() int { return a.npend }

// SetElement stores x at (i, j), overwriting any existing element. The
// update is buffered as a pending tuple and observed by all subsequent
// operations; its cost is the existence check of GetElement (a binary
// search of row i plus a scan of that row's pending tuples), which keeps
// NVals current.
func (a *Matrix[T]) SetElement(i, j Index, x T) error {
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return boundsErrf("SetElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	if _, ok := a.get(i, j); !ok {
		a.ndelta++
	}
	a.push(i, matEntry[T]{col: j, val: x})
	return nil
}

// RemoveElement deletes the element at (i, j) if present
// (GrB_Matrix_removeElement). Like SetElement it is buffered: the deletion
// becomes a pending tombstone — SuiteSparse's "zombie" — resolved on the
// next assembly, and observed immediately by all reads.
func (a *Matrix[T]) RemoveElement(i, j Index) error {
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return boundsErrf("RemoveElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	if _, ok := a.get(i, j); ok {
		a.ndelta--
	}
	a.push(i, matEntry[T]{col: j, del: true})
	return nil
}

// push buffers one pending tuple of row i.
func (a *Matrix[T]) push(i Index, e matEntry[T]) {
	if a.pending == nil {
		a.pending = make(map[Index][]matEntry[T])
	}
	a.pending[i] = append(a.pending[i], e)
	a.npend++
}

// GetElement returns the value stored at (i, j) and whether one exists.
func (a *Matrix[T]) GetElement(i, j Index) (T, bool, error) {
	var zero T
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		return zero, false, boundsErrf("GetElement: (%d,%d) outside %d×%d", i, j, a.nrows, a.ncols)
	}
	x, ok := a.get(i, j)
	return x, ok, nil
}

// get is GetElement without the bounds check.
func (a *Matrix[T]) get(i, j Index) (T, bool) {
	var zero T
	// Pending entries are newer than CSR entries; the last one wins.
	if ents, ok := a.pending[i]; ok {
		for k := len(ents) - 1; k >= 0; k-- {
			if ents[k].col == j {
				if ents[k].del {
					return zero, false
				}
				return ents[k].val, true
			}
		}
	}
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	p := lo + sort.SearchInts(a.colInd[lo:hi], j)
	if p < hi && a.colInd[p] == j {
		return a.val[p], true
	}
	return zero, false
}

// Wait assembles all pending tuples into the CSR arrays (GrB_wait). It is a
// no-op when nothing is pending. Cost: O(nnz + p log p) for p pending
// tuples, a single merge pass: the touched rows are visited in sorted
// order, and each run of untouched rows between them moves with one copy
// and a rowPtr shift.
func (a *Matrix[T]) Wait() {
	if a.npend == 0 {
		return
	}
	touched := make([]Index, 0, len(a.pending))
	for i := range a.pending {
		touched = append(touched, i)
	}
	sort.Ints(touched)
	nnz := a.NVals()
	newCol := make([]Index, 0, nnz)
	newVal := make([]T, 0, nnz)
	newPtr := make([]int, a.nrows+1)
	// copyRun moves rows [from, to) unchanged, shifting their offsets.
	copyRun := func(from, to int) {
		lo, hi := a.rowPtr[from], a.rowPtr[to]
		shift := len(newCol) - lo
		for r := from; r < to; r++ {
			newPtr[r] = a.rowPtr[r] + shift
		}
		newCol = append(newCol, a.colInd[lo:hi]...)
		newVal = append(newVal, a.val[lo:hi]...)
	}
	var scratch []matEntry[T]
	next := 0 // first row not yet emitted
	for _, i := range touched {
		copyRun(next, i)
		next = i + 1
		newPtr[i] = len(newCol)
		scratch = mergePendingRow(a.pending[i], scratch[:0])
		lo, hi := a.rowPtr[i], a.rowPtr[i+1]
		p, q := lo, 0
		for p < hi && q < len(scratch) {
			switch {
			case a.colInd[p] < scratch[q].col:
				newCol = append(newCol, a.colInd[p])
				newVal = append(newVal, a.val[p])
				p++
			case a.colInd[p] > scratch[q].col:
				if !scratch[q].del {
					newCol = append(newCol, scratch[q].col)
					newVal = append(newVal, scratch[q].val)
				}
				q++
			default: // pending overwrites base; a tombstone kills it
				if !scratch[q].del {
					newCol = append(newCol, scratch[q].col)
					newVal = append(newVal, scratch[q].val)
				}
				p++
				q++
			}
		}
		newCol = append(newCol, a.colInd[p:hi]...)
		newVal = append(newVal, a.val[p:hi]...)
		for ; q < len(scratch); q++ {
			if !scratch[q].del {
				newCol = append(newCol, scratch[q].col)
				newVal = append(newVal, scratch[q].val)
			}
		}
	}
	copyRun(next, a.nrows)
	newPtr[a.nrows] = len(newCol)
	a.rowPtr, a.colInd, a.val = newPtr, newCol, newVal
	a.pending = nil
	a.npend = 0
	a.ndelta = 0
}

// mergePendingRow sorts a row's pending entries by column, keeping only the
// newest value per column (append order is chronological).
func mergePendingRow[T any](ents []matEntry[T], out []matEntry[T]) []matEntry[T] {
	out = append(out, ents...)
	sort.SliceStable(out, func(x, y int) bool { return out[x].col < out[y].col })
	w := 0
	for r := 0; r < len(out); r++ {
		if r+1 < len(out) && out[r+1].col == out[r].col {
			continue // a newer value for the same column follows
		}
		out[w] = out[r]
		w++
	}
	return out[:w]
}

// rowNNZ reports the assembled number of entries in row i (pending entries
// of that row included, deduplicated).
func (a *Matrix[T]) rowNNZ(i Index) int {
	n := a.rowPtr[i+1] - a.rowPtr[i]
	if ents, ok := a.pending[i]; ok {
		merged := mergePendingRow(ents, nil)
		lo, hi := a.rowPtr[i], a.rowPtr[i+1]
		for _, e := range merged {
			p := lo + sort.SearchInts(a.colInd[lo:hi], e.col)
			inBase := p < hi && a.colInd[p] == e.col
			switch {
			case e.del && inBase:
				n--
			case !e.del && !inBase:
				n++
			}
		}
	}
	return n
}

// forRow calls f(col, val) for every entry of row i in column order,
// merging pending entries without assembling the whole matrix.
func (a *Matrix[T]) forRow(i Index, f func(j Index, x T)) {
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	ents, ok := a.pending[i]
	if !ok {
		for p := lo; p < hi; p++ {
			f(a.colInd[p], a.val[p])
		}
		return
	}
	merged := mergePendingRow(ents, nil)
	p, q := lo, 0
	for p < hi && q < len(merged) {
		switch {
		case a.colInd[p] < merged[q].col:
			f(a.colInd[p], a.val[p])
			p++
		case a.colInd[p] > merged[q].col:
			if !merged[q].del {
				f(merged[q].col, merged[q].val)
			}
			q++
		default:
			if !merged[q].del {
				f(merged[q].col, merged[q].val)
			}
			p++
			q++
		}
	}
	for ; p < hi; p++ {
		f(a.colInd[p], a.val[p])
	}
	for ; q < len(merged); q++ {
		if !merged[q].del {
			f(merged[q].col, merged[q].val)
		}
	}
}

// ForRow calls f(col, value) for every entry of row i in column order. It
// merges pending updates of that row on the fly without assembling the
// matrix — the exported face of the row-sparse access path.
func (a *Matrix[T]) ForRow(i Index, f func(j Index, x T)) error {
	if i < 0 || i >= a.nrows {
		return boundsErrf("ForRow: row %d outside [0,%d)", i, a.nrows)
	}
	a.forRow(i, f)
	return nil
}

// ExtractTuples returns copies of all (row, col, value) triples in row-major
// order (GrB_extractTuples). Pending tuples are assembled first.
func (a *Matrix[T]) ExtractTuples() (rows, cols []Index, vals []T) {
	a.Wait()
	rows = make([]Index, len(a.colInd))
	cols = make([]Index, len(a.colInd))
	vals = make([]T, len(a.val))
	for i := 0; i < a.nrows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			rows[p] = i
		}
	}
	copy(cols, a.colInd)
	copy(vals, a.val)
	return rows, cols, vals
}

// Iterate calls f for every stored element in row-major order until f
// returns false. Pending tuples are assembled first.
func (a *Matrix[T]) Iterate(f func(i, j Index, x T) bool) {
	a.Wait()
	for i := 0; i < a.nrows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if !f(i, a.colInd[p], a.val[p]) {
				return
			}
		}
	}
}

// Resize changes the logical shape (GrB_Matrix_resize). Growing is O(rows);
// shrinking assembles and drops out-of-range entries.
func (a *Matrix[T]) Resize(nrows, ncols int) error {
	if nrows < 0 || ncols < 0 {
		return invalidErrf("Resize: negative shape %d×%d", nrows, ncols)
	}
	if nrows >= a.nrows && ncols >= a.ncols {
		// Pure growth: extend rowPtr, keep storage.
		for i := a.nrows; i < nrows; i++ {
			a.rowPtr = append(a.rowPtr, a.rowPtr[len(a.rowPtr)-1])
		}
		a.nrows, a.ncols = nrows, ncols
		return nil
	}
	a.Wait()
	if nrows < a.nrows {
		a.colInd = a.colInd[:a.rowPtr[nrows]]
		a.val = a.val[:a.rowPtr[nrows]]
		a.rowPtr = a.rowPtr[:nrows+1]
		a.nrows = nrows
	} else if nrows > a.nrows {
		for i := a.nrows; i < nrows; i++ {
			a.rowPtr = append(a.rowPtr, a.rowPtr[len(a.rowPtr)-1])
		}
		a.nrows = nrows
	}
	if ncols < a.ncols {
		w := 0
		newPtr := make([]int, a.nrows+1)
		for i := 0; i < a.nrows; i++ {
			newPtr[i] = w
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				if a.colInd[p] < ncols {
					a.colInd[w] = a.colInd[p]
					a.val[w] = a.val[p]
					w++
				}
			}
		}
		newPtr[a.nrows] = w
		a.colInd = a.colInd[:w]
		a.val = a.val[:w]
		a.rowPtr = newPtr
	}
	a.ncols = ncols
	return nil
}

// Clear removes all stored elements, keeping the shape.
func (a *Matrix[T]) Clear() {
	a.rowPtr = make([]int, a.nrows+1)
	a.colInd = nil
	a.val = nil
	a.pending = nil
	a.npend = 0
	a.ndelta = 0
}

// Clone returns a deep copy (pending tuples are assembled first).
func (a *Matrix[T]) Clone() *Matrix[T] {
	a.Wait()
	b := &Matrix[T]{
		nrows:  a.nrows,
		ncols:  a.ncols,
		rowPtr: make([]int, len(a.rowPtr)),
		colInd: make([]Index, len(a.colInd)),
		val:    make([]T, len(a.val)),
	}
	copy(b.rowPtr, a.rowPtr)
	copy(b.colInd, a.colInd)
	copy(b.val, a.val)
	return b
}
