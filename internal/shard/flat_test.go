package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestCommitAllocationIsFlat pins that a 2-shard Commit allocates by the
// change, not the graph: a like by a fresh user and its removal, committed
// as two sets, allocate at most 1.5× as many bytes at sf 128 as at sf 16.
func TestCommitAllocationIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads sf 128")
	}
	const ops = 200
	var perOp [2]float64
	for k, sf := range []int{16, 128} {
		snap := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1, ChangeSets: 1}).Snapshot
		rt, err := New(2, snap)
		if err != nil {
			t.Fatal(err)
		}
		commit := func(chs ...model.Change) {
			t.Helper()
			if _, err := rt.Commit(&model.ChangeSet{Changes: chs}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(7))
		users := make([]model.ID, ops)
		comments := make([]model.ID, ops)
		var add []model.Change
		for i := range users {
			users[i] = model.ID(1<<50 + i)
			comments[i] = snap.Likes[rng.Intn(len(snap.Likes))].CommentID
			add = append(add, model.Change{Kind: model.KindAddUser, User: model.User{ID: users[i]}})
		}
		commit(add...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range users {
			l := model.Like{UserID: users[i], CommentID: comments[i]}
			commit(model.Change{Kind: model.KindAddLike, Like: l})
			commit(model.Change{Kind: model.KindRemoveLike, Like: l})
		}
		runtime.ReadMemStats(&after)
		perOp[k] = float64(after.TotalAlloc-before.TotalAlloc) / ops
		rt.Close()
	}
	t.Logf("like add + removal: %.0f B/op at sf 16, %.0f B/op at sf 128", perOp[0], perOp[1])
	if perOp[1] > 1.5*perOp[0] {
		t.Fatalf("like add + removal allocates %.0f B/op at sf 128, %.1f× its %.0f B/op at sf 16 (limit 1.5×)",
			perOp[1], perOp[1]/perOp[0], perOp[0])
	}
}
