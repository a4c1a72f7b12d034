package core

import (
	"testing"

	"repro/internal/model"
)

// TestLastResultContract pins the result-snapshot accessor the serving
// layer publishes from: ok=false before Initial, the retained answer equal
// to what the phase calls returned afterwards, and copy (not alias)
// semantics so a caller cannot corrupt the engine's state.
func TestLastResultContract(t *testing.T) {
	d := model.ExampleDataset()
	type snapshotter interface {
		Solution
		LastResult() (Result, bool)
	}
	engines := []snapshotter{NewQ1Incremental(), NewQ2Incremental(), NewQ2IncrementalCC()}
	for _, sol := range engines {
		rs := sol
		if _, ok := rs.LastResult(); ok {
			t.Errorf("%s %s: LastResult ok before Initial", sol.Name(), sol.Query())
		}
		if err := sol.Load(d.Snapshot); err != nil {
			t.Fatalf("%s load: %v", sol.Name(), err)
		}
		res, err := sol.Initial()
		if err != nil {
			t.Fatalf("%s initial: %v", sol.Name(), err)
		}
		last, ok := rs.LastResult()
		if !ok || last.String() != res.String() {
			t.Errorf("%s %s: LastResult after Initial = %q, %v; want %q, true",
				sol.Name(), sol.Query(), last.String(), ok, res.String())
		}
		for k := range d.ChangeSets {
			res, err = sol.Update(&d.ChangeSets[k])
			if err != nil {
				t.Fatalf("%s update %d: %v", sol.Name(), k, err)
			}
			last, ok = rs.LastResult()
			if !ok || last.String() != res.String() {
				t.Errorf("%s %s: LastResult after update %d = %q, %v; want %q, true",
					sol.Name(), sol.Query(), k, last.String(), ok, res.String())
			}
		}
		// Copy semantics: scribbling on the returned slice must not leak
		// into the engine's retained answer.
		if len(last) > 0 {
			last[0].ID = -42
			again, _ := rs.LastResult()
			if again[0].ID == -42 {
				t.Errorf("%s %s: LastResult aliases engine state", sol.Name(), sol.Query())
			}
		}
	}
}

// TestEngineStats checks that every engine reports plausible state sizes
// after loading, and that sizes grow with updates.
func TestEngineStats(t *testing.T) {
	d := model.ExampleDataset()
	type reporter interface {
		Solution
		Stats() EngineStats
	}
	engines := []reporter{
		NewQ1Batch(), NewQ1Incremental(), NewQ2Batch(), NewQ2Incremental(), NewQ2IncrementalCC(),
	}
	for _, sol := range engines {
		sr := sol
		if err := sol.Load(d.Snapshot); err != nil {
			t.Fatalf("%s load: %v", sol.Name(), err)
		}
		if _, err := sol.Initial(); err != nil {
			t.Fatalf("%s initial: %v", sol.Name(), err)
		}
		st := sr.Stats()
		if st.Posts != len(d.Snapshot.Posts) || st.Comments != len(d.Snapshot.Comments) ||
			st.Users != len(d.Snapshot.Users) {
			t.Errorf("%s %s: entity counts %+v do not match snapshot (%d/%d/%d)",
				sol.Name(), sol.Query(), st,
				len(d.Snapshot.Posts), len(d.Snapshot.Comments), len(d.Snapshot.Users))
		}
		if st.NNZ == 0 {
			t.Errorf("%s %s: zero nnz after load", sol.Name(), sol.Query())
		}
		before := st.NNZ
		for k := range d.ChangeSets {
			if _, err := sol.Update(&d.ChangeSets[k]); err != nil {
				t.Fatalf("%s update %d: %v", sol.Name(), k, err)
			}
		}
		if after := sr.Stats().NNZ; after <= before {
			t.Errorf("%s %s: nnz did not grow across insert-only updates (%d -> %d)",
				sol.Name(), sol.Query(), before, after)
		}
	}
}
