package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/lagraph"
	"repro/internal/model"
)

// flatDatasets caches the generated graphs of the flatness tests.
var flatDatasets sync.Map // scale factor → *model.Snapshot

func flatSnapshot(sf int) *model.Snapshot {
	if s, ok := flatDatasets.Load(sf); ok {
		return s.(*model.Snapshot)
	}
	snap := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1, ChangeSets: 1}).Snapshot
	flatDatasets.Store(sf, snap)
	return snap
}

// bytesPerOp reports the bytes allocated by n calls of op, per call.
func bytesPerOp(t *testing.T, n int, op func(i int)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// flatOps is the number of measured operations per size.
const flatOps = 200

// flatFixture is one engine loaded at one scale factor, plus flatOps pairs
// of fresh users (added before measuring), each pair assigned a comment
// that already has likers.
type flatFixture struct {
	eng      Solution
	users    []model.ID
	partners []model.ID
	comments []model.ID
}

func newFlatFixture(t *testing.T, sf int, eng Solution) *flatFixture {
	t.Helper()
	snap := flatSnapshot(sf)
	if err := eng.Load(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Initial(); err != nil {
		t.Fatal(err)
	}
	f := &flatFixture{eng: eng}
	rng := rand.New(rand.NewSource(7))
	var add []model.Change
	for i := 0; i < flatOps; i++ {
		u, w := model.ID(1<<50+2*i), model.ID(1<<50+2*i+1)
		f.users = append(f.users, u)
		f.partners = append(f.partners, w)
		f.comments = append(f.comments, snap.Likes[rng.Intn(len(snap.Likes))].CommentID)
		add = append(add,
			model.Change{Kind: model.KindAddUser, User: model.User{ID: u}},
			model.Change{Kind: model.KindAddUser, User: model.User{ID: w}})
	}
	f.update(t, add...)
	return f
}

func (f *flatFixture) update(t *testing.T, chs ...model.Change) {
	t.Helper()
	if _, err := f.eng.Update(&model.ChangeSet{Changes: chs}); err != nil {
		t.Fatal(err)
	}
}

func like(kind model.ChangeKind, u, c model.ID) model.Change {
	return model.Change{Kind: kind, Like: model.Like{UserID: u, CommentID: c}}
}

func friendship(kind model.ChangeKind, a, b model.ID) model.Change {
	return model.Change{Kind: kind, Friendship: model.Friendship{User1: a, User2: b}}
}

// TestUpdateAllocationIsFlat pins that the served engines' per-update
// allocation follows the change, not the graph: each single-change
// operation on a fresh user allocates at most 1.5× as many bytes at sf 128
// as at sf 16, removals included.
func TestUpdateAllocationIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads sf 128")
	}
	cases := []struct {
		name  string
		eng   func() Solution
		setup func(t *testing.T, f *flatFixture, i int)
		op    func(t *testing.T, f *flatFixture, i int)
	}{
		{"q1-like-add", func() Solution { return NewQ1Incremental() }, nil,
			func(t *testing.T, f *flatFixture, i int) {
				f.update(t, like(model.KindAddLike, f.users[i], f.comments[i]))
			}},
		{"q1-like-add-remove", func() Solution { return NewQ1Incremental() }, nil,
			func(t *testing.T, f *flatFixture, i int) {
				f.update(t, like(model.KindAddLike, f.users[i], f.comments[i]))
				f.update(t, like(model.KindRemoveLike, f.users[i], f.comments[i]))
			}},
		{"cc-like-add-remove", func() Solution { return NewQ2IncrementalCC() }, nil,
			func(t *testing.T, f *flatFixture, i int) {
				f.update(t, like(model.KindAddLike, f.users[i], f.comments[i]))
				f.update(t, like(model.KindRemoveLike, f.users[i], f.comments[i]))
			}},
		{"cc-friendship-add-remove", func() Solution { return NewQ2IncrementalCC() },
			// Both fresh users first like the same comment, so the
			// friendship merges them there and its removal splits them.
			func(t *testing.T, f *flatFixture, i int) {
				f.update(t, like(model.KindAddLike, f.users[i], f.comments[i]),
					like(model.KindAddLike, f.partners[i], f.comments[i]))
			},
			func(t *testing.T, f *flatFixture, i int) {
				f.update(t, friendship(model.KindAddFriendship, f.users[i], f.partners[i]))
				f.update(t, friendship(model.KindRemoveFriendship, f.users[i], f.partners[i]))
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var perOp [2]float64
			for k, sf := range []int{16, 128} {
				f := newFlatFixture(t, sf, c.eng())
				if c.setup != nil {
					for i := range f.users {
						c.setup(t, f, i)
					}
				}
				perOp[k] = bytesPerOp(t, flatOps, func(i int) { c.op(t, f, i) })
			}
			t.Logf("%s: %.0f B/op at sf 16, %.0f B/op at sf 128", c.name, perOp[0], perOp[1])
			if perOp[1] > 1.5*perOp[0] {
				t.Fatalf("%s allocates %.0f B/op at sf 128, %.1f× its %.0f B/op at sf 16 (limit 1.5×)",
					c.name, perOp[1], perOp[1]/perOp[0], perOp[0])
			}
		})
	}
}

// TestCCRepairMatchesRecount runs random add and remove streams of likes
// and friendships over a small, dense graph, so merges, bridges and
// non-bridge cuts are all common, and after every step checks each
// comment's maintained state against a recount: the liker set, the
// component sizes stored at the roots, and the score against
// SumSquaredComponentSizes of a union-find rebuilt from scratch. The
// answer must equal a full ranking of the recounted scores.
func TestCCRepairMatchesRecount(t *testing.T) {
	const nu, nc = 14, 6
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}}}
		for u := 0; u < nu; u++ {
			snap.Users = append(snap.Users, model.User{ID: model.ID(100 + u)})
		}
		for c := 0; c < nc; c++ {
			snap.Comments = append(snap.Comments, model.Comment{ID: model.ID(10 + c), Timestamp: int64(c % 3), ParentID: 1, PostID: 1})
		}
		likes := map[[2]int]bool{}   // (comment, user)
		friends := map[[2]int]bool{} // (low user, high user)
		for k := 0; k < 20; k++ {
			c, u := rng.Intn(nc), rng.Intn(nu)
			if !likes[[2]int{c, u}] {
				likes[[2]int{c, u}] = true
				snap.Likes = append(snap.Likes, model.Like{UserID: model.ID(100 + u), CommentID: model.ID(10 + c)})
			}
			a, b := rng.Intn(nu), rng.Intn(nu)
			if a > b {
				a, b = b, a
			}
			if a != b && !friends[[2]int{a, b}] {
				friends[[2]int{a, b}] = true
				snap.Friendships = append(snap.Friendships, model.Friendship{User1: model.ID(100 + a), User2: model.ID(100 + b)})
			}
		}
		s := NewQ2IncrementalCC()
		if err := s.Load(snap); err != nil {
			t.Fatal(err)
		}
		res, err := s.Initial()
		if err != nil {
			t.Fatal(err)
		}
		check := func(step int) {
			t.Helper()
			want := NewTopK(TopK)
			for c := 0; c < nc; c++ {
				ci := s.comments.MustIndex(model.ID(10 + c))
				cc := &s.cc[ci]
				var likers []int
				pos := map[int]int{} // user → DSU element
				for u := 0; u < nu; u++ {
					if likes[[2]int{c, u}] {
						pos[u] = len(likers)
						likers = append(likers, u)
					}
				}
				dsu := lagraph.NewDSU(len(likers))
				for _, a := range likers {
					for _, b := range likers {
						if a < b && friends[[2]int{a, b}] {
							dsu.Union(pos[a], pos[b])
						}
					}
				}
				score := dsu.SumSquaredComponentSizes()
				if len(cc.elems) != len(likers) || cc.score != score {
					t.Fatalf("seed %d step %d comment %d: %d likers score %d, recount %d likers score %d",
						seed, step, c, len(cc.elems), cc.score, len(likers), score)
				}
				for e := range cc.elems {
					u := int(s.users.IDOf(int(cc.elems[e].user)) - 100)
					p, liked := pos[u]
					if !liked {
						t.Fatalf("seed %d step %d comment %d: element %d holds user %d, who does not like it",
							seed, step, c, e, u)
					}
					if got, want := int(cc.elems[cc.find(int32(e))].size), dsu.ComponentSize(p); got != want {
						t.Fatalf("seed %d step %d comment %d: element %d (user %d) root size %d, recount %d",
							seed, step, c, e, u, got, want)
					}
				}
				want.Consider(Entry{ID: model.ID(10 + c), Score: score, Timestamp: int64(c % 3)})
			}
			if got, w := res.String(), want.Result().String(); got != w {
				t.Fatalf("seed %d step %d: answer %q, recount %q", seed, step, got, w)
			}
		}
		check(0)
		for step := 1; step <= 300; step++ {
			var ch model.Change
			switch op := rng.Intn(4); op {
			case 0, 1: // like: add if absent, remove if present
				c, u := rng.Intn(nc), rng.Intn(nu)
				kind := model.KindAddLike
				if likes[[2]int{c, u}] {
					kind = model.KindRemoveLike
				}
				likes[[2]int{c, u}] = kind == model.KindAddLike
				ch = like(kind, model.ID(100+u), model.ID(10+c))
			default: // friendship: add if absent, remove if present
				a, b := rng.Intn(nu), rng.Intn(nu)
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				kind := model.KindAddFriendship
				if friends[[2]int{a, b}] {
					kind = model.KindRemoveFriendship
				}
				friends[[2]int{a, b}] = kind == model.KindAddFriendship
				// Either endpoint order, as the stream may name them.
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				ch = friendship(kind, model.ID(100+a), model.ID(100+b))
			}
			if res, err = s.Update(&model.ChangeSet{Changes: []model.Change{ch}}); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
	}
}
