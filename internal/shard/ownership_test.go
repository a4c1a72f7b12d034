package shard

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// streamGen draws a random valid change stream over a small graph. New
// users and comments keep arriving, so groups keep merging across shards
// even after most of the graph has joined one group.
type streamGen struct {
	rng      *rand.Rand
	next     model.ID
	posts    []model.ID
	users    []model.ID
	comments []model.ID
	likes    map[model.Like]bool
	friends  map[model.Friendship]bool
}

func newStreamGen(seed int64, snap *model.Snapshot) *streamGen {
	g := &streamGen{rng: rand.New(rand.NewSource(seed)), next: 1_000_000,
		likes: make(map[model.Like]bool), friends: make(map[model.Friendship]bool)}
	for _, p := range snap.Posts {
		g.posts = append(g.posts, p.ID)
	}
	for _, u := range snap.Users {
		g.users = append(g.users, u.ID)
	}
	for _, c := range snap.Comments {
		g.comments = append(g.comments, c.ID)
	}
	for _, l := range snap.Likes {
		g.likes[l] = true
	}
	for _, f := range snap.Friendships {
		g.friends[friendKey(f.User1, f.User2)] = true
	}
	return g
}

func friendKey(a, b model.ID) model.Friendship {
	if a > b {
		a, b = b, a
	}
	return model.Friendship{User1: a, User2: b}
}

func (g *streamGen) id() model.ID { g.next++; return g.next }

func (g *streamGen) user() model.ID { return g.users[g.rng.Intn(len(g.users))] }

// pick returns a random key of m that this set has not touched yet.
func pick[K comparable](rng *rand.Rand, m map[K]bool, touched map[any]bool) (K, bool) {
	var zero K
	if len(m) == 0 {
		return zero, false
	}
	k := rng.Intn(len(m))
	for key := range m {
		if k--; k < 0 {
			return key, !touched[key]
		}
	}
	return zero, false
}

// set returns the next change set. A merge set chains friendships through
// several users, so one group can merge (and migrate) several times in it;
// other sets mix entity adds, like and friendship adds, and removals. No
// set touches an edge twice.
func (g *streamGen) set() *model.ChangeSet {
	cs := &model.ChangeSet{}
	touched := make(map[any]bool)
	befriend := func(a, b model.ID) {
		f := friendKey(a, b)
		if a == b || g.friends[f] || touched[f] {
			return
		}
		touched[f] = true
		g.friends[f] = true
		cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddFriendship, Friendship: f})
	}
	if g.rng.Intn(4) == 0 {
		prev := g.user()
		for k := 0; k < 2+g.rng.Intn(3); k++ {
			u := g.user()
			befriend(prev, u)
			prev = u
		}
		return cs
	}
	for k := 0; k < 1+g.rng.Intn(6); k++ {
		switch op := g.rng.Intn(10); {
		case op == 0:
			p := g.id()
			g.posts = append(g.posts, p)
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddPost, Post: model.Post{ID: p, Timestamp: int64(p)}})
		case op == 1:
			u := g.id()
			g.users = append(g.users, u)
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddUser, User: model.User{ID: u}})
		case op == 2:
			c, p := g.id(), g.posts[g.rng.Intn(len(g.posts))]
			g.comments = append(g.comments, c)
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddComment,
				Comment: model.Comment{ID: c, Timestamp: int64(c), ParentID: p, PostID: p}})
		case op < 6:
			l := model.Like{UserID: g.user(), CommentID: g.comments[g.rng.Intn(len(g.comments))]}
			if !g.likes[l] && !touched[l] {
				touched[l] = true
				g.likes[l] = true
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddLike, Like: l})
			}
		case op < 8:
			befriend(g.user(), g.user())
		case op == 8:
			if l, ok := pick(g.rng, g.likes, touched); ok {
				touched[l] = true
				delete(g.likes, l)
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindRemoveLike, Like: l})
			}
		default:
			if f, ok := pick(g.rng, g.friends, touched); ok {
				touched[f] = true
				delete(g.friends, f)
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindRemoveFriendship, Friendship: f})
			}
		}
	}
	return cs
}

// checkOwnership asserts that each shard's Q2 engine holds exactly the
// users and the non-parked comments whose group the router places on that
// shard.
func checkOwnership(t *testing.T, rt *Runtime, step int) {
	t.Helper()
	r := rt.router
	users := make([][]model.ID, rt.n)
	comments := make([][]model.ID, rt.n)
	for id, ni := range r.users {
		s := r.shardOf(ni)
		users[s] = append(users[s], id)
	}
	for id, ni := range r.comments {
		if _, parked := r.parkedRank.Get(int(ni)); !parked {
			s := r.shardOf(ni)
			comments[s] = append(comments[s], id)
		}
	}
	for s, w := range rt.workers {
		if _, err := w.q2.Extract(users[s], comments[s]); err != nil {
			t.Fatalf("step %d: shard %d engine lacks part of its groups: %v", step, s, err)
		}
		if st := w.q2.Stats(); st.Users != len(users[s]) || st.Comments != len(comments[s]) {
			t.Fatalf("step %d: shard %d engine holds %d users and %d comments, its groups %d and %d",
				step, s, st.Users, st.Comments, len(users[s]), len(comments[s]))
		}
	}
}

// TestEnginesHoldExactlyTheirGroups is the ownership oracle: over a seeded
// random stream with cross-shard merges, sets that merge one group several
// times, and removals, every shard's CC engine holds exactly its groups'
// users and non-parked comments after every commit, and the answers equal
// the batch oracle's.
func TestEnginesHoldExactlyTheirGroups(t *testing.T) {
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}, {ID: 2, Timestamp: 2}}}
	for k := model.ID(0); k < 12; k++ {
		c := model.Comment{ID: 100 + k, Timestamp: int64(100 + k), ParentID: 1 + k%2, PostID: 1 + k%2}
		snap.Comments = append(snap.Comments, c)
		for u := 1000 + 10*k; u < 1000+10*k+1+k%3; u++ {
			snap.Users = append(snap.Users, model.User{ID: u})
			snap.Likes = append(snap.Likes, model.Like{UserID: u, CommentID: c.ID})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := newStreamGen(seed, snap)
		oracle := newBatchOracle(t, snap.Clone())
		rt, err := New(3, snap.Clone())
		if err != nil {
			t.Fatal(err)
		}
		checkOwnership(t, rt, 0)
		multi, removals := 0, 0
		for step := 1; step <= 300; step++ {
			cs := g.set()
			removals += cs.RemovalCount()
			wantQ1, wantQ2 := oracle.update(t, cs)
			before := rt.Rebalances()
			res, err := rt.Commit(cs)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if res["q1"] != wantQ1 || res["q2"] != wantQ2 {
				t.Fatalf("seed %d step %d: q1 %q q2 %q, oracle %q %q", seed, step, res["q1"], res["q2"], wantQ1, wantQ2)
			}
			if rt.Rebalances()-before > 1 {
				multi++
			}
			checkOwnership(t, rt, step)
		}
		if rt.Rebalances() == 0 || multi == 0 || removals == 0 {
			t.Fatalf("seed %d: %d rebalances, %d sets with several, %d removals: the stream missed a case",
				seed, rt.Rebalances(), multi, removals)
		}
		t.Logf("seed %d: %d rebalances, %d sets with several, %d removals", seed, rt.Rebalances(), multi, removals)
		rt.Close()
	}
}
