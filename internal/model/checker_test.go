package model

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func checkerFixture() *Snapshot {
	return &Snapshot{
		Posts:       []Post{{ID: 1, Timestamp: 1}},
		Comments:    []Comment{{ID: 10, Timestamp: 2, ParentID: 1, PostID: 1}},
		Users:       []User{{ID: 100}, {ID: 101}, {ID: 102}},
		Friendships: []Friendship{{User1: 100, User2: 101}},
		Likes:       []Like{{UserID: 100, CommentID: 10}},
	}
}

// TestCheckerRules runs every case through the incremental checker and
// through Validate (the fixture plus a one-change set): both must agree on
// accept/reject, and every rejection must wrap ErrIntegrity.
func TestCheckerRules(t *testing.T) {
	cases := []struct {
		name    string
		change  Change
		wantErr string // substring; empty means accepted
	}{
		{"new post", Change{Kind: KindAddPost, Post: Post{ID: 2}}, ""},
		{"dup post", Change{Kind: KindAddPost, Post: Post{ID: 1}}, "already exists"},
		{"comment on post", Change{Kind: KindAddComment,
			Comment: Comment{ID: 11, ParentID: 1, PostID: 1}}, ""},
		{"comment on comment", Change{Kind: KindAddComment,
			Comment: Comment{ID: 11, ParentID: 10, PostID: 1}}, ""},
		{"dup comment", Change{Kind: KindAddComment,
			Comment: Comment{ID: 10, ParentID: 1, PostID: 1}}, "already exists"},
		{"comment root mismatch via post parent", Change{Kind: KindAddComment,
			Comment: Comment{ID: 11, ParentID: 1, PostID: 99}}, "roots at unknown post"},
		{"comment parent unknown", Change{Kind: KindAddComment,
			Comment: Comment{ID: 11, ParentID: 999, PostID: 1}}, "unknown submission"},
		{"new user", Change{Kind: KindAddUser, User: User{ID: 103}}, ""},
		{"dup user", Change{Kind: KindAddUser, User: User{ID: 100}}, "already exists"},
		{"self friendship", Change{Kind: KindAddFriendship,
			Friendship: Friendship{User1: 100, User2: 100}}, "self-friendship"},
		{"friendship unknown user", Change{Kind: KindAddFriendship,
			Friendship: Friendship{User1: 100, User2: 999}}, "unknown user"},
		{"dup friendship reversed", Change{Kind: KindAddFriendship,
			Friendship: Friendship{User1: 101, User2: 100}}, "already exists"},
		{"new like", Change{Kind: KindAddLike,
			Like: Like{UserID: 101, CommentID: 10}}, ""},
		{"dup like", Change{Kind: KindAddLike,
			Like: Like{UserID: 100, CommentID: 10}}, "already likes"},
		{"like unknown comment", Change{Kind: KindAddLike,
			Like: Like{UserID: 100, CommentID: 999}}, "unknown comment"},
		{"like unknown user", Change{Kind: KindAddLike,
			Like: Like{UserID: 999, CommentID: 10}}, "unknown user"},
		{"remove friendship reversed", Change{Kind: KindRemoveFriendship,
			Friendship: Friendship{User1: 101, User2: 100}}, ""},
		// 102 is a known user with no edge to 100, so the existence check
		// itself (not a user check) rejects.
		{"remove missing friendship", Change{Kind: KindRemoveFriendship,
			Friendship: Friendship{User1: 100, User2: 102}}, "does not exist"},
		{"remove like", Change{Kind: KindRemoveLike,
			Like: Like{UserID: 100, CommentID: 10}}, ""},
		{"remove missing like", Change{Kind: KindRemoveLike,
			Like: Like{UserID: 101, CommentID: 10}}, "does not like"},
		{"unknown kind", Change{Kind: ChangeKind(99)}, "unknown change kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewChecker(checkerFixture())
			if err != nil {
				t.Fatal(err)
			}
			d := &Dataset{Snapshot: checkerFixture(), ChangeSets: []ChangeSet{{Changes: []Change{tc.change}}}}
			for _, got := range []struct {
				via string
				err error
			}{
				{"ApplyAll", c.ApplyAll([]Change{tc.change})},
				{"Validate", Validate(d)},
			} {
				if tc.wantErr == "" {
					if got.err != nil {
						t.Errorf("%s: %v, want accepted", got.via, got.err)
					}
					continue
				}
				if !errors.Is(got.err, ErrIntegrity) || !strings.Contains(got.err.Error(), tc.wantErr) {
					t.Errorf("%s: %v, want integrity violation containing %q", got.via, got.err, tc.wantErr)
				}
			}
		})
	}
}

// TestCheckerRemoveMissingFriendship removes a friendship between two known
// users with no edge, one of them added through the checker itself, so the
// existence check (not a user check) rejects.
func TestCheckerRemoveMissingFriendship(t *testing.T) {
	c, err := NewChecker(checkerFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAll([]Change{{Kind: KindAddUser, User: User{ID: 103}}}); err != nil {
		t.Fatal(err)
	}
	err = c.ApplyAll([]Change{{Kind: KindRemoveFriendship,
		Friendship: Friendship{User1: 100, User2: 103}}})
	if !errors.Is(err, ErrIntegrity) || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("ApplyAll: %v, want integrity violation containing 'does not exist'", err)
	}
}

// TestCheckerRollbackIsComplete applies a request whose last change is
// invalid and checks that every earlier change was rolled back: the state
// must hold the same content as before the request, and the valid prefix
// must then apply cleanly (no leftover entity or edge), which also
// requires the removed edges to be restored.
func TestCheckerRollbackIsComplete(t *testing.T) {
	c, err := NewChecker(checkerFixture())
	if err != nil {
		t.Fatal(err)
	}
	before := c.State().Clone()
	req := []Change{
		{Kind: KindAddUser, User: User{ID: 200}},
		{Kind: KindAddPost, Post: Post{ID: 5}},
		{Kind: KindAddComment, Comment: Comment{ID: 50, ParentID: 5, PostID: 5}},
		{Kind: KindAddLike, Like: Like{UserID: 200, CommentID: 50}},
		{Kind: KindAddFriendship, Friendship: Friendship{User1: 200, User2: 100}},
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 100, User2: 101}},
		{Kind: KindRemoveLike, Like: Like{UserID: 100, CommentID: 10}},
		{Kind: KindAddPost, Post: Post{ID: 1}}, // duplicate → rejects the request
	}
	if err := c.ApplyAll(req); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("request with duplicate post: %v, want integrity violation", err)
	}
	if err := sameState(c.State(), before); err != nil {
		t.Fatalf("state after rejected request: %v", err)
	}
	if err := c.checkIndex(); err != nil {
		t.Fatalf("after rejected request: %v", err)
	}
	if err := c.ApplyAll(req[:7]); err != nil {
		t.Fatalf("valid prefix rejected after rollback: %v", err)
	}
}

// TestCheckerStateIsCanonicalCopy checks that the checker's state is a
// copy (NewChecker and ApplyAll leave their inputs alone) whose
// friendships are stored canonically, however they were spelled.
func TestCheckerStateIsCanonicalCopy(t *testing.T) {
	s := checkerFixture()
	s.Friendships[0] = Friendship{User1: 101, User2: 100}
	c, err := NewChecker(s)
	if err != nil {
		t.Fatal(err)
	}
	req := []Change{{Kind: KindAddFriendship, Friendship: Friendship{User1: 102, User2: 100}}}
	if err := c.ApplyAll(req); err != nil {
		t.Fatal(err)
	}
	if s.Friendships[0] != (Friendship{User1: 101, User2: 100}) || req[0].Friendship != (Friendship{User1: 102, User2: 100}) {
		t.Fatal("checker rewrote its input")
	}
	want := []Friendship{{User1: 100, User2: 101}, {User1: 100, User2: 102}}
	if got := c.State().Friendships; !slices.Equal(got, want) {
		t.Fatalf("state friendships %v, want %v", got, want)
	}
	if err := c.checkIndex(); err != nil {
		t.Fatal(err)
	}
}

// sameState compares two snapshots: node slices exactly, edges as
// canonical sets (order and orientation independent).
func sameState(got, want *Snapshot) error {
	switch {
	case !slices.Equal(got.Posts, want.Posts):
		return fmt.Errorf("posts differ (%d vs %d)", len(got.Posts), len(want.Posts))
	case !slices.Equal(got.Comments, want.Comments):
		return fmt.Errorf("comments differ (%d vs %d)", len(got.Comments), len(want.Comments))
	case !slices.Equal(got.Users, want.Users):
		return fmt.Errorf("users differ (%d vs %d)", len(got.Users), len(want.Users))
	case !sameEdgeSets(got, want):
		return fmt.Errorf("edge sets differ (%d/%d friendships, %d/%d likes)",
			len(got.Friendships), len(want.Friendships), len(got.Likes), len(want.Likes))
	}
	return nil
}

// checkIndex reports the first disagreement between the checker's maps and
// its state: every entity map matches its slice's length, and every edge
// map entry points at a slice element with its key.
func (c *Checker) checkIndex() error {
	st := c.state
	if len(c.posts) != len(st.Posts) || len(c.comments) != len(st.Comments) || len(c.users) != len(st.Users) {
		return fmt.Errorf("node maps %d/%d/%d, slices %d/%d/%d", len(c.posts), len(c.comments), len(c.users),
			len(st.Posts), len(st.Comments), len(st.Users))
	}
	if err := checkEdgeIndex("friendship", c.friends, st.Friendships, friendKey); err != nil {
		return err
	}
	return checkEdgeIndex("like", c.likes, st.Likes, likeKey)
}

func checkEdgeIndex[E any](family string, pos map[[2]ID]int32, edges []E, key func(E) [2]ID) error {
	if len(pos) != len(edges) {
		return fmt.Errorf("%s map has %d entries, slice %d", family, len(pos), len(edges))
	}
	for k, i := range pos {
		if int(i) >= len(edges) || key(edges[i]) != k {
			return fmt.Errorf("%s %v maps to position %d, which does not hold it", family, k, i)
		}
	}
	return nil
}
