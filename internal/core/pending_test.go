package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// matrixEngine is an engine whose state is the shared matrix graph.
type matrixEngine interface {
	Solution
	Stats() EngineStats
	graph() *graph
}

func matrixEngines() map[string]matrixEngine {
	return map[string]matrixEngine{
		"q1-batch": NewQ1Batch(), "q1-incremental": NewQ1Incremental(),
		"q2-batch": NewQ2Batch(), "q2-incremental": NewQ2Incremental(),
	}
}

func (s *Q1Batch) graph() *graph       { return s.g }
func (s *Q1Incremental) graph() *graph { return s.g }
func (s *Q2Batch) graph() *graph       { return s.g }
func (s *Q2Incremental) graph() *graph { return s.g }

// TestStatsLeavesPendingTuples pins that reading an engine's stats is
// free of side effects: no matrix assembles (NPending is unchanged), the
// reported Pending is the real pending count, and forcing the assembly
// afterwards leaves NNZ where Stats put it.
func TestStatsLeavesPendingTuples(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 11, ChangeSets: 40, RemovalFraction: 0.2})
	for name, eng := range matrixEngines() {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		sawPending := false
		for k := range d.ChangeSets {
			if _, err := eng.Update(&d.ChangeSets[k]); err != nil {
				t.Fatalf("%s update %d: %v", name, k, err)
			}
			ms := eng.graph().matrices()
			before := make([]int, len(ms))
			total := 0
			for m, mat := range ms {
				before[m] = mat.NPending()
				total += before[m]
			}
			st := eng.Stats()
			for m, mat := range ms {
				if mat.NPending() != before[m] {
					t.Fatalf("%s step %d: Stats changed matrix %d's NPending %d -> %d",
						name, k, m, before[m], mat.NPending())
				}
			}
			if st.Pending != total {
				t.Fatalf("%s step %d: Stats().Pending = %d, matrices hold %d", name, k, st.Pending, total)
			}
			sawPending = sawPending || total > 0
			if k%4 != 3 {
				continue
			}
			for _, mat := range ms {
				mat.Wait()
			}
			if after := eng.Stats(); after.NNZ != st.NNZ || after.Pending != 0 {
				t.Fatalf("%s step %d: after Wait NNZ %d pending %d, Stats said NNZ %d",
					name, k, after.NNZ, after.Pending, st.NNZ)
			}
		}
		if !sawPending {
			t.Errorf("%s: no pending tuples after any update; updates assemble eagerly", name)
		}
	}
}

// TestPendingStaysBelowAssemblyLimit runs a long stream of single-like
// updates, every fourth also adding a comment (so the one matrix the
// incremental Q1 engine keeps, RootPostᵀ, receives tuples too), and checks after each one that every matrix's pending tuples
// stay under the settle limit, while tuples do accumulate between
// assemblies (an engine that assembled on every update would also stay
// under the limit, at O(nnz) per update).
func TestPendingStaysBelowAssemblyLimit(t *testing.T) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 5, ChangeSets: 1})
	liked := make(map[model.Like]struct{}, len(d.Snapshot.Likes))
	for _, l := range d.Snapshot.Likes {
		liked[l] = struct{}{}
	}
	rng := rand.New(rand.NewSource(6))
	var stream []model.ChangeSet
	for len(stream) < 1500 {
		l := model.Like{
			UserID:    d.Snapshot.Users[rng.Intn(len(d.Snapshot.Users))].ID,
			CommentID: d.Snapshot.Comments[rng.Intn(len(d.Snapshot.Comments))].ID,
		}
		if _, dup := liked[l]; dup {
			continue
		}
		liked[l] = struct{}{}
		cs := model.ChangeSet{Changes: []model.Change{{Kind: model.KindAddLike, Like: l}}}
		if len(stream)%4 == 0 {
			post := d.Snapshot.Posts[rng.Intn(len(d.Snapshot.Posts))].ID
			id := model.ID(1<<40 + len(stream))
			cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddComment,
				Comment: model.Comment{ID: id, Timestamp: int64(len(stream)), ParentID: post, PostID: post}})
		}
		stream = append(stream, cs)
	}
	for _, eng := range []matrixEngine{NewQ1Incremental(), NewQ2Incremental()} {
		if err := eng.Load(d.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Initial(); err != nil {
			t.Fatal(err)
		}
		maxPending := 0
		for k := range stream {
			if _, err := eng.Update(&stream[k]); err != nil {
				t.Fatalf("%s update %d: %v", eng.Name(), k, err)
			}
			for m, mat := range eng.graph().matrices() {
				if limit := mat.NRows() + mat.NVals(); mat.NPending()*pendingDivisor >= limit {
					t.Fatalf("%s update %d: matrix %d holds %d pending tuples, limit %d/%d",
						eng.Name(), k, m, mat.NPending(), limit, pendingDivisor)
				}
				maxPending = max(maxPending, mat.NPending())
			}
		}
		if maxPending < 2 {
			t.Errorf("%s: at most %d pending tuples over %d updates; assembly is not amortized",
				eng.Name(), maxPending, len(stream))
		}
	}
}

// TestQ2IncrementalCCStatsMatchesRecount checks the CC engine's maintained
// edge counters against a recount of its adjacency and like lists after
// every update of a mixed insert/remove stream, after removals of edges
// that do not exist, and across retractions of whole groups and the re-add
// of what Extract returned for them, which must restore the answer.
func TestQ2IncrementalCCStatsMatchesRecount(t *testing.T) {
	recount := func(s *Q2IncrementalCC) int {
		n := 0
		for _, fs := range s.friends {
			n += len(fs)
		}
		for _, ls := range s.userLikes {
			n += len(ls)
		}
		return n
	}
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 9, ChangeSets: 60, RemovalFraction: 0.3})
	s := NewQ2IncrementalCC()
	if err := s.Load(d.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Initial(); err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if got, want := s.Stats().NNZ, recount(s); got != want {
			t.Fatalf("%s: Stats().NNZ = %d, recount %d", step, got, want)
		}
	}
	check("load")
	for k := range d.ChangeSets {
		if _, err := s.Update(&d.ChangeSets[k]); err != nil {
			t.Fatal(err)
		}
		check("update")
	}
	users, comments := d.Snapshot.Users, d.Snapshot.Comments
	missing := model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: users[0].ID, CommentID: comments[0].ID}},
		{Kind: model.KindRemoveLike, Like: model.Like{UserID: users[0].ID, CommentID: comments[0].ID}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: users[1].ID, User2: users[2].ID}},
		{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: users[1].ID, User2: users[2].ID}},
	}}
	if _, err := s.Update(&missing); err != nil {
		t.Fatal(err)
	}
	check("removing missing edges")
	// Retract whole groups (components over likes and friendships), the
	// self-contained subgraphs Retract's contract asks for, and re-add
	// what Extract returned for them.
	rng := rand.New(rand.NewSource(10))
	for round := 0; round < 8; round++ {
		before, nnz := s.prev.String(), s.Stats().NNZ
		// Groups that hold edges: the first round takes the largest, the
		// others a random subset.
		var groups []ccGroup
		for _, g := range ccGroups(s) {
			if len(g.users) > 0 && len(g.users)+len(g.comments) > 1 {
				groups = append(groups, g)
			}
		}
		sort.Slice(groups, func(a, b int) bool {
			return len(groups[a].users)+len(groups[a].comments) > len(groups[b].users)+len(groups[b].comments)
		})
		picks := []int{0}
		if round > 0 {
			picks = rng.Perm(len(groups))[:1+rng.Intn(len(groups))]
		}
		var users, comments []model.ID
		for _, k := range picks {
			users = append(users, groups[k].users...)
			comments = append(comments, groups[k].comments...)
		}
		readd, err := s.Extract(users, comments)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Retract(&model.Retraction{Users: users, Comments: comments}); err != nil {
			t.Fatal(err)
		}
		check("retract")
		if _, err := s.Extract(users, comments); err == nil && len(users)+len(comments) > 0 {
			t.Fatal("extracting retracted entities succeeded, want error")
		}
		got, err := s.Update(&model.ChangeSet{Changes: readd})
		if err != nil {
			t.Fatal(err)
		}
		check("re-add")
		if got.String() != before || s.Stats().NNZ != nnz {
			t.Fatalf("round %d: re-adding %d users and %d comments gave %q with NNZ %d, want %q with NNZ %d",
				round, len(users), len(comments), got, s.Stats().NNZ, before, nnz)
		}
	}
}

// ccGroup is one component of a CC engine's live users and comments over
// its likes and friendships.
type ccGroup struct {
	users, comments []model.ID
}

// ccGroups partitions the engine's live users and comments into their
// components, users at nodes 0..|users|-1 and comment ci at |users|+ci.
func ccGroups(s *Q2IncrementalCC) []ccGroup {
	nu := s.users.Len()
	parent := make([]int, nu+s.comments.Len())
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for ci := range s.cc {
		for _, el := range s.cc[ci].elems {
			union(int(el.user), nu+ci)
		}
	}
	for ui, fs := range s.friends {
		for _, f := range fs {
			union(ui, f)
		}
	}
	at := make(map[int]int)
	var groups []ccGroup
	group := func(x int) *ccGroup {
		r := find(x)
		k, ok := at[r]
		if !ok {
			k = len(groups)
			at[r] = k
			groups = append(groups, ccGroup{})
		}
		return &groups[k]
	}
	for ui := 0; ui < nu; ui++ {
		if _, gone := s.retiredUsers[ui]; !gone {
			g := group(ui)
			g.users = append(g.users, s.users.IDOf(ui))
		}
	}
	for ci := range s.cc {
		if _, gone := s.retiredComments[ci]; !gone {
			g := group(nu + ci)
			g.comments = append(g.comments, s.comments.IDOf(ci))
		}
	}
	return groups
}
