package model

import (
	"reflect"
	"sort"
	"testing"
)

func TestChangeKeyCanonical(t *testing.T) {
	f1 := Change{Kind: KindAddFriendship, Friendship: Friendship{User1: 7, User2: 3}}
	f2 := Change{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 3, User2: 7}}
	if f1.Key() != f2.Key() {
		t.Fatalf("friendship orientations key differently: %+v vs %+v", f1.Key(), f2.Key())
	}
	l1 := Change{Kind: KindAddLike, Like: Like{UserID: 3, CommentID: 7}}
	l2 := Change{Kind: KindRemoveLike, Like: Like{UserID: 3, CommentID: 7}}
	if l1.Key() != l2.Key() {
		t.Fatal("add and remove of the same like key differently")
	}
	if l1.Key() == f1.Key() {
		t.Fatal("like (3,7) aliases friendship {3,7}")
	}
	// Node keys of different families never alias even with equal ids.
	p := Change{Kind: KindAddPost, Post: Post{ID: 5}}
	c := Change{Kind: KindAddComment, Comment: Comment{ID: 5}}
	u := Change{Kind: KindAddUser, User: User{ID: 5}}
	if p.Key() == c.Key() || c.Key() == u.Key() || p.Key() == u.Key() {
		t.Fatal("node keys alias across families")
	}
}

func TestNormalizeOrdersFriendshipEndpoints(t *testing.T) {
	cs := &ChangeSet{Changes: []Change{
		{Kind: KindAddFriendship, Friendship: Friendship{User1: 9, User2: 2}},
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 2, User2: 9}},
		{Kind: KindAddLike, Like: Like{UserID: 9, CommentID: 2}},
	}}
	cs.Normalize()
	if cs.Changes[0].Friendship != (Friendship{User1: 2, User2: 9}) {
		t.Fatalf("add-friendship not normalized: %+v", cs.Changes[0].Friendship)
	}
	if cs.Changes[1].Friendship != (Friendship{User1: 2, User2: 9}) {
		t.Fatalf("remove-friendship not normalized: %+v", cs.Changes[1].Friendship)
	}
	if cs.Changes[2].Like != (Like{UserID: 9, CommentID: 2}) {
		t.Fatal("normalize touched a like")
	}
}

// sameEdgeSets compares two snapshots' friendship and like content as
// canonical sets (order and orientation independent).
func sameEdgeSets(a, b *Snapshot) bool {
	norm := func(s *Snapshot) ([]ChangeKey, []ChangeKey) {
		var fs, ls []ChangeKey
		for _, f := range s.Friendships {
			ch := Change{Kind: KindAddFriendship, Friendship: f}
			fs = append(fs, ch.Key())
		}
		for _, l := range s.Likes {
			ch := Change{Kind: KindAddLike, Like: l}
			ls = append(ls, ch.Key())
		}
		less := func(x, y ChangeKey) bool {
			if x.A != y.A {
				return x.A < y.A
			}
			return x.B < y.B
		}
		sort.Slice(fs, func(i, j int) bool { return less(fs[i], fs[j]) })
		sort.Slice(ls, func(i, j int) bool { return less(ls[i], ls[j]) })
		return fs, ls
	}
	af, al := norm(a)
	bf, bl := norm(b)
	return reflect.DeepEqual(af, bf) && reflect.DeepEqual(al, bl)
}

func TestInsertAndRemovalCounts(t *testing.T) {
	cs := &ChangeSet{Changes: []Change{
		{Kind: KindAddUser, User: User{ID: 1}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 2}},
		{Kind: KindRemoveLike, Like: Like{UserID: 1, CommentID: 2}},
	}}
	if cs.Size() != 3 || cs.InsertCount() != 2 || cs.RemovalCount() != 1 {
		t.Fatalf("size/insert/removal = %d/%d/%d, want 3/2/1",
			cs.Size(), cs.InsertCount(), cs.RemovalCount())
	}
	d := &Dataset{ChangeSets: []ChangeSet{*cs}}
	if d.TotalInserts() != 2 {
		t.Fatalf("TotalInserts = %d, want 2 (removals must not count)", d.TotalInserts())
	}
}

// TestApplyRemovalHeavyLinear pins the keyed-index Apply on a removal-heavy
// set: interleaved adds and removals (including same-key re-adds inside one
// set) must land on the sequentially-correct final state.
func TestApplyRemovalHeavyLinear(t *testing.T) {
	s := &Snapshot{
		Users: []User{{ID: 1}, {ID: 2}, {ID: 3}},
		Likes: []Like{{UserID: 1, CommentID: 10}, {UserID: 2, CommentID: 10}},
		Friendships: []Friendship{
			{User1: 1, User2: 2}, {User1: 2, User2: 3},
		},
	}
	s.Apply(&ChangeSet{Changes: []Change{
		{Kind: KindRemoveLike, Like: Like{UserID: 1, CommentID: 10}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 10}},                // re-add in the same set
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 3, User2: 2}}, // reversed spelling
		{Kind: KindAddFriendship, Friendship: Friendship{User1: 1, User2: 3}},
		{Kind: KindRemoveLike, Like: Like{UserID: 2, CommentID: 10}},
	}})
	wantLikes := []Like{{UserID: 1, CommentID: 10}}
	wantFriends := []Friendship{{User1: 1, User2: 2}, {User1: 1, User2: 3}}
	if !reflect.DeepEqual(s.Likes, wantLikes) {
		t.Fatalf("likes = %+v, want %+v", s.Likes, wantLikes)
	}
	if !reflect.DeepEqual(s.Friendships, wantFriends) {
		t.Fatalf("friendships = %+v, want %+v", s.Friendships, wantFriends)
	}
}
