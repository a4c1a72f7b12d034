package core

import (
	"testing"

	"repro/internal/model"
)

// twoGroupSnapshot builds two friendship-disjoint co-like groups — the
// shape a shard group migration subtracts from a donor partition.
//
//	group A: users 100, 101 (friends) both like comment 10 (score 4)
//	group B: users 200, 201 (friends) both like comment 20,
//	         user 202 likes comments 20 and 21       (c20 score 5, c21 1)
func twoGroupSnapshot() *model.Snapshot {
	return &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1},
			{ID: 20, Timestamp: 4, ParentID: 1, PostID: 1},
			{ID: 21, Timestamp: 5, ParentID: 1, PostID: 1},
		},
		Users: []model.User{{ID: 100}, {ID: 101}, {ID: 200}, {ID: 201}, {ID: 202}},
		Likes: []model.Like{
			{UserID: 100, CommentID: 10}, {UserID: 101, CommentID: 10},
			{UserID: 200, CommentID: 20}, {UserID: 201, CommentID: 20},
			{UserID: 202, CommentID: 20}, {UserID: 202, CommentID: 21},
		},
		Friendships: []model.Friendship{
			{User1: 100, User2: 101}, {User1: 200, User2: 201},
		},
	}
}

// groupARetraction is group A as a self-contained subtractive delta.
func groupARetraction() *model.Retraction {
	return &model.Retraction{
		Users:    []model.ID{100, 101},
		Comments: []model.ID{10},
	}
}

// survivorSnapshot is what remains after group A leaves: the partition a
// donor reload would be built from. Posts stay (they are broadcast).
func survivorSnapshot() *model.Snapshot {
	return &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 20, Timestamp: 4, ParentID: 1, PostID: 1},
			{ID: 21, Timestamp: 5, ParentID: 1, PostID: 1},
		},
		Users: []model.User{{ID: 200}, {ID: 201}, {ID: 202}},
		Likes: []model.Like{
			{UserID: 200, CommentID: 20}, {UserID: 201, CommentID: 20},
			{UserID: 202, CommentID: 20}, {UserID: 202, CommentID: 21},
		},
		Friendships: []model.Friendship{{User1: 200, User2: 201}},
	}
}

// deltaEngines are the engines that retract, by subtest name: the served
// Q2 engine.
func deltaEngines(t *testing.T) map[string]*Q2IncrementalCC {
	t.Helper()
	return map[string]*Q2IncrementalCC{"Q2IncrementalCC": NewQ2IncrementalCC()}
}

// TestRetractMatchesReload: retracting a migrated group from a warm engine
// must leave it answer- and stats-equivalent to a fresh engine loaded from
// the surviving partition — the reload it replaces.
func TestRetractMatchesReload(t *testing.T) {
	for name, sol := range deltaEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			if _, err := sol.Initial(); err != nil {
				t.Fatal(err)
			}
			got, err := sol.Retract(groupARetraction())
			if err != nil {
				t.Fatal(err)
			}

			fresh := deltaEngines(t)[name]
			if err := fresh.Load(survivorSnapshot()); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Initial()
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("retract answer %q, reload answer %q", got, want)
			}

			gotStats := sol.Stats()
			wantStats := fresh.Stats()
			if gotStats.Comments != wantStats.Comments || gotStats.Users != wantStats.Users ||
				gotStats.NNZ != wantStats.NNZ {
				t.Fatalf("retract stats %+v, reload stats %+v", gotStats, wantStats)
			}

			// The engine must stay updatable: a new like on a survivor.
			cs := &model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddUser, User: model.User{ID: 300}},
				{Kind: model.KindAddLike, Like: model.Like{UserID: 300, CommentID: 21}},
			}}
			gotUpd, err := sol.Update(cs)
			if err != nil {
				t.Fatal(err)
			}
			wantUpd, err := fresh.Update(cs)
			if err != nil {
				t.Fatal(err)
			}
			if gotUpd.String() != wantUpd.String() {
				t.Fatalf("post-retract update %q, reload update %q", gotUpd, wantUpd)
			}
		})
	}
}

// TestRetractTopRankedForcesRerank retracts the group holding the top
// comment, so the previous answer cannot be reused.
func TestRetractTopRankedForcesRerank(t *testing.T) {
	for name, sol := range deltaEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			if _, err := sol.Initial(); err != nil {
				t.Fatal(err)
			}
			// Group B holds the top comment 20 (score 5): retract it.
			got, err := sol.Retract(&model.Retraction{
				Users:    []model.ID{200, 201, 202},
				Comments: []model.ID{20, 21},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != "10" {
				t.Fatalf("post-retract answer %q, want %q", got, "10")
			}
		})
	}
}

// TestRetractThenReAdd: a group migrating back revives its entities — the
// ping-pong case a re-merging shard router can produce.
func TestRetractThenReAdd(t *testing.T) {
	for name, sol := range deltaEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			initial, err := sol.Initial()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sol.Retract(groupARetraction()); err != nil {
				t.Fatal(err)
			}
			// The group returns as the synthetic add stream a migration
			// recipient would receive.
			back := &model.ChangeSet{Changes: []model.Change{
				{Kind: model.KindAddUser, User: model.User{ID: 100}},
				{Kind: model.KindAddUser, User: model.User{ID: 101}},
				{Kind: model.KindAddComment, Comment: model.Comment{ID: 10, Timestamp: 3, ParentID: 1, PostID: 1}},
				{Kind: model.KindAddLike, Like: model.Like{UserID: 100, CommentID: 10}},
				{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 10}},
				{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 100, User2: 101}},
			}}
			got, err := sol.Update(back)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != initial.String() {
				t.Fatalf("after retract+re-add: %q, want the initial answer %q", got, initial)
			}
			st := sol.Stats()
			if st.Comments != 3 || st.Users != 5 {
				t.Fatalf("revived stats %+v, want 3 comments / 5 users", st)
			}
		})
	}
}

// TestRetractUnknownEntityFails: a retraction referencing entities the
// engine never saw must error, not corrupt state.
func TestRetractUnknownEntityFails(t *testing.T) {
	for name, sol := range deltaEngines(t) {
		t.Run(name, func(t *testing.T) {
			if err := sol.Load(twoGroupSnapshot()); err != nil {
				t.Fatal(err)
			}
			if _, err := sol.Initial(); err != nil {
				t.Fatal(err)
			}
			if _, err := sol.Retract(&model.Retraction{Comments: []model.ID{999}}); err == nil {
				t.Fatal("retraction of unknown comment succeeded, want error")
			}
		})
	}
}
