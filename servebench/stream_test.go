package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/model"
	"repro/internal/server"
)

// dispatchOrder returns one order in which a dispatcher obeying the hold
// rule may send the sets: at each step any set whose dependencies were all
// sent before may go next. pick chooses among the ready sets.
func dispatchOrder(deps [][]int, pick func(ready []int) int) []int {
	dependents := make([][]int, len(deps))
	waiting := make([]int, len(deps))
	var ready []int
	for i, ds := range deps {
		waiting[i] = len(ds)
		for _, j := range ds {
			dependents[j] = append(dependents[j], i)
		}
		if len(ds) == 0 {
			ready = append(ready, i)
		}
	}
	var order []int
	for len(ready) > 0 {
		k := pick(ready)
		i := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, i)
		for _, j := range dependents[i] {
			if waiting[j]--; waiting[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return order
}

// TestDispatchOrdersValidate checks the hold rule: every order it allows is
// a referentially valid history, and all of them end in the same answers.
// The orders tried are stream order, the most reordered one (always the
// latest ready set), and random ones.
func TestDispatchOrdersValidate(t *testing.T) {
	st, err := newStream(2, 7, 600)
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range st.deps {
		for _, j := range ds {
			if j >= i {
				t.Fatalf("set %d depends on later set %d", i, j)
			}
		}
	}
	all := make([]bool, len(st.sets))
	for i := range all {
		all[i] = true
	}
	want, _, err := batchAnswers(st.initial, st.sets, all)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	picks := map[string]func([]int) int{
		"stream": func(ready []int) int {
			k := 0
			for i := range ready {
				if ready[i] < ready[k] {
					k = i
				}
			}
			return k
		},
		"latest": func(ready []int) int {
			k := 0
			for i := range ready {
				if ready[i] > ready[k] {
					k = i
				}
			}
			return k
		},
	}
	for r := 0; r < 20; r++ {
		picks["random"+string(rune('a'+r))] = func(ready []int) int { return rng.Intn(len(ready)) }
	}
	for name, pick := range picks {
		order := dispatchOrder(st.deps, pick)
		if len(order) != len(st.sets) {
			t.Fatalf("%s: order covers %d of %d sets", name, len(order), len(st.sets))
		}
		d := &model.Dataset{Snapshot: st.initial}
		for _, i := range order {
			d.ChangeSets = append(d.ChangeSets, st.sets[i])
		}
		if err := model.Validate(d); err != nil {
			t.Fatalf("%s order: %v", name, err)
		}
		got, _, err := batchAnswers(st.initial, d.ChangeSets, all)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("%s order: %s = %q, stream order gives %q", name, k, got[k], want[k])
			}
		}
	}
}

// TestStreamShape pins the stream properties the workloads rely on:
// removals, removal-carrying sets and sets that wait for their predecessor.
func TestStreamShape(t *testing.T) {
	st, err := newStream(16, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	changes, removals, withRemoval, onPrev := 0, 0, 0, 0
	for i := range st.sets {
		changes += st.sets[i].Size()
		removals += st.sets[i].RemovalCount()
		if st.sets[i].HasRemovals() {
			withRemoval++
		}
		for _, j := range st.deps[i] {
			if j == i-1 {
				onPrev++
			}
		}
	}
	share := func(a, b int) float64 { return float64(a) / float64(b) }
	if r := share(removals, changes); r < 0.12 || r > 0.2 {
		t.Errorf("removal share %.3f, want about 0.16", r)
	}
	if r := share(withRemoval, len(st.sets)); r < 0.55 || r > 0.75 {
		t.Errorf("share of sets with a removal %.3f, want about 2/3", r)
	}
	if r := share(onPrev, len(st.sets)); r < 0.3 || r > 0.7 {
		t.Errorf("share of sets depending on their predecessor %.3f, want about 1/2", r)
	}
}

// TestDriveInProcess drives an in-process server through both update
// phases and checks that nothing fails and the oracle agrees.
func TestDriveInProcess(t *testing.T) {
	st, err := newStream(2, 5, 300)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Dataset:    &model.Dataset{Snapshot: st.initial.Clone()},
		Shards:     2,
		PersistDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	d := newDispatcher(st, ts.URL, 2)
	r := newReader(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.loop(ctx, -1)
	}()
	fx := d.fixedRate(0, 150, 200)
	d.closedLoop(150, 300, 2)
	cancel()
	<-done

	if n := d.failed.Load(); n != 0 || r.failed != 0 {
		t.Fatalf("%d updates and %d reads failed", n, r.failed)
	}
	if got := d.ackedSets(); got != 300 {
		t.Fatalf("%d sets acknowledged, want 300", got)
	}
	if fx.latency.Count() != 150 {
		t.Errorf("fixed-rate phase timed %d sets, want 150", fx.latency.Count())
	}
	ok, stats, err := d.checkAnswers()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("served answers disagree with the batch engines")
	}
	if stats.Seq == 0 {
		t.Error("/stats reports no commits")
	}
}
