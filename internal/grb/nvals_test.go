package grb

import (
	"math/rand"
	"testing"
)

// TestNValsTracksPendingWithoutAssembly drives random SetElement /
// RemoveElement sequences — overwrites, tombstones over base and pending
// entries, removals of missing elements, resurrections — against a map
// model. NVals must match the model after every step without assembling:
// NPending only ever grows between the explicit Waits the sequence mixes
// in. After each Wait the CSR contents must equal the model.
func TestNValsTracksPendingWithoutAssembly(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(8), 1+rng.Intn(8)
		model := map[[2]Index]int{}
		var rows, cols []Index
		var vals []int
		for k := rng.Intn(nr * nc); k > 0; k-- {
			i, j := rng.Intn(nr), rng.Intn(nc)
			rows, cols, vals = append(rows, i), append(cols, j), append(vals, k)
			model[[2]Index{i, j}] = k
		}
		a := Must(MatrixFromTuples(nr, nc, rows, cols, vals, nil))
		for step := 0; step < 300; step++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			before := a.NPending()
			switch r := rng.Intn(10); {
			case r < 5:
				x := rng.Intn(1000)
				Must0(a.SetElement(i, j, x))
				model[[2]Index{i, j}] = x
			case r < 9:
				Must0(a.RemoveElement(i, j))
				delete(model, [2]Index{i, j})
			default:
				a.Wait()
				if got := matToMap(a); len(got) != len(model) {
					t.Fatalf("seed %d step %d: assembled %d entries, model %d", seed, step, len(got), len(model))
				}
				for k, want := range model {
					if x, ok, _ := a.GetElement(k[0], k[1]); !ok || x != want {
						t.Fatalf("seed %d step %d: (%d,%d) = (%d,%v), want %d", seed, step, k[0], k[1], x, ok, want)
					}
				}
				if a.NPending() != 0 {
					t.Fatalf("seed %d step %d: %d pending after Wait", seed, step, a.NPending())
				}
				continue
			}
			if got := a.NVals(); got != len(model) {
				t.Fatalf("seed %d step %d: NVals = %d, model has %d", seed, step, got, len(model))
			}
			if a.NPending() != before+1 {
				t.Fatalf("seed %d step %d: NPending %d -> %d; NVals must not assemble", seed, step, before, a.NPending())
			}
		}
	}
}

// TestNValsAcrossResizeAndClear pins the count through the two other
// operations that touch pending state: growth keeps the tuples pending,
// shrinking assembles, Clear drops everything.
func TestNValsAcrossResizeAndClear(t *testing.T) {
	a := NewMatrix[int](3, 3)
	Must0(a.SetElement(0, 0, 1))
	Must0(a.SetElement(2, 2, 2))
	Must0(a.RemoveElement(1, 1)) // missing: no change
	Must0(a.Resize(5, 5))
	if a.NVals() != 2 || a.NPending() != 3 {
		t.Fatalf("after growth: NVals %d NPending %d, want 2 and 3", a.NVals(), a.NPending())
	}
	Must0(a.Resize(2, 2))
	if a.NVals() != 1 || a.NPending() != 0 {
		t.Fatalf("after shrink: NVals %d NPending %d, want 1 and 0", a.NVals(), a.NPending())
	}
	Must0(a.SetElement(1, 1, 3))
	a.Clear()
	if a.NVals() != 0 || a.NPending() != 0 {
		t.Fatalf("after Clear: NVals %d NPending %d, want 0 and 0", a.NVals(), a.NPending())
	}
}
