package model

import (
	"math/rand"
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

func TestCompactSupersedesAddRemovePairs(t *testing.T) {
	cs := &ChangeSet{Changes: []Change{
		{Kind: KindAddUser, User: User{ID: 1}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 10}}, // add…
		{Kind: KindAddFriendship, Friendship: Friendship{User1: 1, User2: 2}},
		{Kind: KindRemoveLike, Like: Like{UserID: 1, CommentID: 10}},             // …remove: nets out
		{Kind: KindRemoveFriendship, Friendship: Friendship{User1: 2, User2: 1}}, // reversed spelling: nets out
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 11}},                // survives
	}}
	cs.Compact()
	want := []Change{
		{Kind: KindAddUser, User: User{ID: 1}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 11}},
	}
	if !reflect.DeepEqual(cs.Changes, want) {
		t.Fatalf("compacted to %+v, want %+v", cs.Changes, want)
	}
}

func TestCompactNetEffectTable(t *testing.T) {
	like := func(kind ChangeKind) Change { return Change{Kind: kind, Like: Like{UserID: 1, CommentID: 2}} }
	cases := []struct {
		name string
		in   []ChangeKind
		want []ChangeKind // surviving kinds for the key
	}{
		{"add", []ChangeKind{KindAddLike}, []ChangeKind{KindAddLike}},
		{"add-remove", []ChangeKind{KindAddLike, KindRemoveLike}, nil},
		{"remove-add", []ChangeKind{KindRemoveLike, KindAddLike}, nil},
		{"remove", []ChangeKind{KindRemoveLike}, []ChangeKind{KindRemoveLike}},
		{"add-remove-add", []ChangeKind{KindAddLike, KindRemoveLike, KindAddLike}, []ChangeKind{KindAddLike}},
		{"remove-add-remove", []ChangeKind{KindRemoveLike, KindAddLike, KindRemoveLike}, []ChangeKind{KindRemoveLike}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := &ChangeSet{}
			for _, k := range tc.in {
				cs.Changes = append(cs.Changes, like(k))
			}
			cs.Compact()
			var got []ChangeKind
			for i := range cs.Changes {
				got = append(got, cs.Changes[i].Kind)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("compact(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestCompactKeepsNodesAheadOfTheirEdges(t *testing.T) {
	cs := &ChangeSet{Changes: []Change{
		{Kind: KindAddUser, User: User{ID: 1}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 10}},
		{Kind: KindRemoveLike, Like: Like{UserID: 1, CommentID: 10}},
		{Kind: KindAddUser, User: User{ID: 1}}, // synthetic duplicate
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 10}},
	}}
	cs.Compact()
	want := []Change{
		{Kind: KindAddUser, User: User{ID: 1}},
		{Kind: KindAddLike, Like: Like{UserID: 1, CommentID: 10}},
	}
	if !reflect.DeepEqual(cs.Changes, want) {
		t.Fatalf("compacted to %+v, want %+v", cs.Changes, want)
	}
}

// TestCompactPreservesAppliedState drives a randomized valid-ish history and
// checks the invariant compaction promises: applying the compacted set to
// any base snapshot yields the same final state as applying the original.
func TestCompactPreservesAppliedState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		base := &Snapshot{
			Posts:    []Post{{ID: 1}},
			Comments: []Comment{{ID: 10, ParentID: 1, PostID: 1}, {ID: 11, ParentID: 1, PostID: 1}},
			Users:    []User{{ID: 100}, {ID: 101}, {ID: 102}},
		}
		// Track live edges so the generated history stays valid (no double
		// adds, no removals of absent edges) — the regime Compact documents.
		liveF := map[ChangeKey]Friendship{}
		liveL := map[ChangeKey]Like{}
		var cs ChangeSet
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				f := Friendship{User1: 100 + ID(rng.Intn(3)), User2: 100 + ID(rng.Intn(3))}
				if f.User1 == f.User2 {
					continue
				}
				ch := Change{Kind: KindAddFriendship, Friendship: f}
				if _, ok := liveF[ch.Key()]; ok {
					ch.Kind = KindRemoveFriendship
					delete(liveF, ch.Key())
				} else {
					liveF[ch.Key()] = f
				}
				cs.Changes = append(cs.Changes, ch)
			} else {
				l := Like{UserID: 100 + ID(rng.Intn(3)), CommentID: 10 + ID(rng.Intn(2))}
				ch := Change{Kind: KindAddLike, Like: l}
				if _, ok := liveL[ch.Key()]; ok {
					ch.Kind = KindRemoveLike
					delete(liveL, ch.Key())
				} else {
					liveL[ch.Key()] = l
				}
				cs.Changes = append(cs.Changes, ch)
			}
		}
		plain := base.Clone()
		plain.Apply(&cs)
		compacted := &ChangeSet{Changes: append([]Change(nil), cs.Changes...)}
		compacted.Compact()
		if compacted.Size() > cs.Size() {
			t.Fatalf("trial %d: compaction grew the set (%d -> %d)", trial, cs.Size(), compacted.Size())
		}
		viaCompact := base.Clone()
		viaCompact.Apply(compacted)
		if !sameEdgeSets(plain, viaCompact) {
			t.Fatalf("trial %d: compacted replay diverged\noriginal:  %+v %+v\ncompacted: %+v %+v",
				trial, plain.Friendships, plain.Likes, viaCompact.Friendships, viaCompact.Likes)
		}
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
