package core

import (
	"fmt"

	"repro/internal/lagraph"
	"repro/internal/model"
)

// Q2IncrementalCC realizes the paper's future-work item (2): instead of
// re-running connected components over each affected comment's induced
// subgraph, it maintains the components themselves incrementally (in the
// spirit of Ediger et al., "Tracking structure of streaming social
// networks"). Insertions only ever merge components, so a disjoint-set
// union per comment tracks them exactly:
//
//   - a new like adds the user to the comment's DSU and unions it with its
//     friends already present — O(deg_friends(u) · α);
//   - a new friendship unions the endpoints in every comment both users
//     like — O(deg_likes(u1) + deg_likes(u2)) row merge plus unions;
//   - each union updates the comment's Σ sizes² score in O(1) via
//     (s₁+s₂)² − s₁² − s₂².
//
// A DSU cannot split, so removals (the paper's future-work workload) are
// handled per comment: an unlike rebuilds that comment's DSU, and an
// unfriend rebuilds every comment both users still like, each from the
// current liker set and friendship adjacency. Insertions never recompute a
// score; the price is per-comment DSU state (ca. one integer pair per
// like). This is the Q2 engine the sharded server runs.
type Q2IncrementalCC struct {
	// Entity bookkeeping (same dense index spaces as the matrix engines).
	posts    *model.IDMap // unused for scoring; retained for symmetry
	comments *model.IDMap
	users    *model.IDMap

	commentTS []int64

	friends   [][]int // user index → friend user indices
	userLikes [][]int // user index → liked comment indices
	// nFriends and nLikes are the total lengths of friends and userLikes,
	// kept where entries are appended and removed so Stats is O(1).
	nFriends, nLikes int

	cc   []commentComponents
	prev Result

	// retiredComments/retiredUsers mark entities subtracted by Retract (the
	// id maps are append-only, so they keep their dense index); a re-add
	// revives them.
	retiredComments map[int]struct{}
	retiredUsers    map[int]struct{}
}

// commentComponents is the per-comment incremental component state.
type commentComponents struct {
	dsu   *lagraph.DSU
	node  map[int]int // user index → DSU element
	score int64
}

// NewQ2IncrementalCC returns the incremental-connected-components Q2
// engine.
func NewQ2IncrementalCC() *Q2IncrementalCC { return &Q2IncrementalCC{} }

// Name implements Solution.
func (*Q2IncrementalCC) Name() string { return "GraphBLAS Incremental (incremental CC)" }

// Query implements Solution.
func (*Q2IncrementalCC) Query() string { return "Q2" }

// Load implements Solution by replaying the snapshot through the same event
// handlers the update phase uses: every co-liking friend pair is observed
// by whichever of its two events arrives second, so the final partition is
// order-independent.
func (s *Q2IncrementalCC) Load(snap *model.Snapshot) error {
	s.posts = model.NewIDMap()
	s.comments = model.NewIDMap()
	s.users = model.NewIDMap()
	for _, p := range snap.Posts {
		s.posts.Add(p.ID)
	}
	for _, c := range snap.Comments {
		s.comments.Add(c.ID)
		s.commentTS = append(s.commentTS, c.Timestamp)
		s.cc = append(s.cc, newCommentComponents())
	}
	for _, u := range snap.Users {
		s.users.Add(u.ID)
		s.friends = append(s.friends, nil)
		s.userLikes = append(s.userLikes, nil)
	}
	for _, l := range snap.Likes {
		ci, ok := s.comments.Index(l.CommentID)
		if !ok {
			return fmt.Errorf("core: like references unknown comment %d", l.CommentID)
		}
		ui, ok := s.users.Index(l.UserID)
		if !ok {
			return fmt.Errorf("core: like references unknown user %d", l.UserID)
		}
		s.onLike(ci, ui)
	}
	for _, f := range snap.Friendships {
		a, ok := s.users.Index(f.User1)
		if !ok {
			return fmt.Errorf("core: friendship references unknown user %d", f.User1)
		}
		b, ok := s.users.Index(f.User2)
		if !ok {
			return fmt.Errorf("core: friendship references unknown user %d", f.User2)
		}
		s.onFriendship(a, b)
	}
	return nil
}

func newCommentComponents() commentComponents {
	return commentComponents{dsu: lagraph.NewDSU(0), node: make(map[int]int)}
}

// onLike ingests a likes edge (comment ci ← user ui).
func (s *Q2IncrementalCC) onLike(ci, ui int) {
	cc := &s.cc[ci]
	if _, dup := cc.node[ui]; dup {
		return
	}
	id := cc.dsu.Add()
	cc.node[ui] = id
	cc.score++ // new singleton: +1²
	for _, f := range s.friends[ui] {
		if fid, ok := cc.node[f]; ok {
			s.unionScored(cc, id, fid)
		}
	}
	s.userLikes[ui] = append(s.userLikes[ui], ci)
	s.nLikes++
}

// onFriendship ingests an undirected friends edge.
func (s *Q2IncrementalCC) onFriendship(a, b int) {
	// Union in every comment both users like: merge the (sorted-order-
	// irrelevant) like lists via a membership probe on the smaller one.
	la, lb := s.userLikes[a], s.userLikes[b]
	if len(lb) < len(la) {
		la, lb = lb, la
		a, b = b, a
	}
	inA := make(map[int]struct{}, len(la))
	for _, ci := range la {
		inA[ci] = struct{}{}
	}
	for _, ci := range lb {
		if _, ok := inA[ci]; !ok {
			continue
		}
		cc := &s.cc[ci]
		s.unionScored(cc, cc.node[a], cc.node[b])
	}
	s.friends[a] = append(s.friends[a], b)
	s.friends[b] = append(s.friends[b], a)
	s.nFriends += 2
}

// onUnlike ingests a like removal: drop the user from the comment's
// component state and rebuild it (a DSU cannot split, so removals
// re-derive the comment from current adjacency — still local to one
// comment, unlike a full Q2 recomputation).
func (s *Q2IncrementalCC) onUnlike(ci, ui int) {
	cc := &s.cc[ci]
	if _, ok := cc.node[ui]; !ok {
		return
	}
	delete(cc.node, ui)
	var removed bool
	if s.userLikes[ui], removed = removeFrom(s.userLikes[ui], ci); removed {
		s.nLikes--
	}
	s.rebuildComment(ci)
}

// removeFrom deletes the first occurrence of x from list, reporting whether
// there was one.
func removeFrom(list []int, x int) ([]int, bool) {
	for k, v := range list {
		if v == x {
			return append(list[:k], list[k+1:]...), true
		}
	}
	return list, false
}

// onUnfriend ingests a friendship removal: drop the adjacency and rebuild
// every comment both users still like (the only comments whose components
// the edge could have been holding together).
func (s *Q2IncrementalCC) onUnfriend(a, b int) []int {
	var removed bool
	if s.friends[a], removed = removeFrom(s.friends[a], b); removed {
		s.nFriends--
	}
	if s.friends[b], removed = removeFrom(s.friends[b], a); removed {
		s.nFriends--
	}
	inA := make(map[int]struct{}, len(s.userLikes[a]))
	for _, ci := range s.userLikes[a] {
		inA[ci] = struct{}{}
	}
	var rebuilt []int
	for _, ci := range s.userLikes[b] {
		if _, ok := inA[ci]; ok {
			s.rebuildComment(ci)
			rebuilt = append(rebuilt, ci)
		}
	}
	return rebuilt
}

// rebuildComment re-derives one comment's DSU and score from the current
// liker set and friendship adjacency.
func (s *Q2IncrementalCC) rebuildComment(ci int) {
	cc := &s.cc[ci]
	users := make([]int, 0, len(cc.node))
	for u := range cc.node {
		users = append(users, u)
	}
	cc.dsu = lagraph.NewDSU(len(users))
	newNode := make(map[int]int, len(users))
	for id, u := range users {
		newNode[u] = id
	}
	cc.node = newNode
	for _, u := range users {
		for _, f := range s.friends[u] {
			if fid, ok := newNode[f]; ok {
				cc.dsu.Union(newNode[u], fid)
			}
		}
	}
	cc.score = cc.dsu.SumSquaredComponentSizes()
}

// unionScored merges two DSU elements and updates the comment score by
// (s₁+s₂)² − s₁² − s₂².
func (s *Q2IncrementalCC) unionScored(cc *commentComponents, x, y int) {
	rx, ry := cc.dsu.Find(x), cc.dsu.Find(y)
	if rx == ry {
		return
	}
	s1 := int64(cc.dsu.ComponentSize(rx))
	s2 := int64(cc.dsu.ComponentSize(ry))
	cc.dsu.Union(rx, ry)
	cc.score += (s1+s2)*(s1+s2) - s1*s1 - s2*s2
}

// rankAll ranks every live comment from the maintained scores; retired
// comments (retracted to another partition) are excluded.
func (s *Q2IncrementalCC) rankAll() Result {
	t := NewTopK(TopK)
	for ci := range s.cc {
		if _, gone := s.retiredComments[ci]; gone {
			continue
		}
		t.Consider(Entry{ID: s.comments.IDOf(ci), Score: s.cc[ci].score, Timestamp: s.commentTS[ci]})
	}
	return t.Result()
}

// Initial implements Solution: scores are already maintained, so the first
// evaluation is just a ranking pass.
func (s *Q2IncrementalCC) Initial() (Result, error) {
	s.prev = s.rankAll()
	return s.prev, nil
}

// Retract is the subtractive counterpart of Update: it removes a
// self-contained subgraph — every like in the retraction targets a
// retracted comment from a retracted user, every friendship joins two
// retracted users — from the maintained state and reevaluates, without
// reloading the surviving partition. This is what makes a shard group
// migration O(|group|) on the donor side: the shard router computes the
// migrated group's retraction once and the donor's engine subtracts it.
//
// The contract mirrors Update: Retract returns the post-retraction answer,
// and LastResult/Stats reflect the retraction. Callers must guarantee
// self-containment (the router's groups provide it by construction); a
// retraction referencing unknown entities is an error.
//
// Retracted users lose their adjacency and like lists wholesale, retracted
// comments drop their component state, and both retire from the ranking
// until a re-add revives them. Self-containment means no surviving user or
// comment references the retracted set, so no surviving score changes and
// the previous answer stays valid unless it ranked a now-retired comment.
func (s *Q2IncrementalCC) Retract(r *model.Retraction) (Result, error) {
	if s.retiredUsers == nil {
		s.retiredUsers = make(map[int]struct{})
	}
	if s.retiredComments == nil {
		s.retiredComments = make(map[int]struct{})
	}
	for _, id := range r.Users {
		ui, ok := s.users.Index(id)
		if !ok {
			return nil, fmt.Errorf("core: retraction references unknown user %d", id)
		}
		s.nFriends -= len(s.friends[ui])
		s.nLikes -= len(s.userLikes[ui])
		s.friends[ui] = nil
		s.userLikes[ui] = nil
		s.retiredUsers[ui] = struct{}{}
	}
	for _, id := range r.Comments {
		ci, ok := s.comments.Index(id)
		if !ok {
			return nil, fmt.Errorf("core: retraction references unknown comment %d", id)
		}
		s.cc[ci] = newCommentComponents()
		s.retiredComments[ci] = struct{}{}
	}
	rerank := s.prev == nil
	for _, e := range s.prev {
		if _, gone := s.retiredComments[s.comments.MustIndex(e.ID)]; gone {
			rerank = true
			break
		}
	}
	if rerank {
		s.prev = s.rankAll()
	}
	return s.prev, nil
}

// Update implements Solution: feed each change through its event handler,
// then merge the touched comments into the previous top-3 (or re-rank
// everything when the change set removed edges, since scores may drop).
func (s *Q2IncrementalCC) Update(cs *model.ChangeSet) (Result, error) {
	touched := make(map[int]struct{})
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindRemoveLike:
			ci, ok := s.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := s.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown user %d", ch.Like.UserID)
			}
			s.onUnlike(ci, ui)
			touched[ci] = struct{}{}
			continue
		case model.KindRemoveFriendship:
			a, ok := s.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User1)
			}
			b, ok := s.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User2)
			}
			for _, ci := range s.onUnfriend(a, b) {
				touched[ci] = struct{}{}
			}
			continue
		}
		switch ch.Kind {
		case model.KindAddPost:
			s.posts.Add(ch.Post.ID)
		case model.KindAddUser:
			idx := s.users.Add(ch.User.ID)
			if idx == len(s.friends) {
				s.friends = append(s.friends, nil)
				s.userLikes = append(s.userLikes, nil)
			}
			delete(s.retiredUsers, idx) // a re-add revives a retracted user
		case model.KindAddComment:
			idx := s.comments.Add(ch.Comment.ID)
			if idx == len(s.cc) {
				s.cc = append(s.cc, newCommentComponents())
				s.commentTS = append(s.commentTS, ch.Comment.Timestamp)
			}
			delete(s.retiredComments, idx) // a re-add revives a retracted comment
			touched[idx] = struct{}{}
		case model.KindAddLike:
			ci, ok := s.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := s.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown user %d", ch.Like.UserID)
			}
			s.onLike(ci, ui)
			touched[ci] = struct{}{}
		case model.KindAddFriendship:
			a, ok := s.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User1)
			}
			b, ok := s.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User2)
			}
			// Record affected comments (liked by both) before the handler
			// mutates the like lists — scores change exactly there.
			small, large := s.userLikes[a], s.userLikes[b]
			if len(large) < len(small) {
				small, large = large, small
			}
			inSmall := make(map[int]struct{}, len(small))
			for _, ci := range small {
				inSmall[ci] = struct{}{}
			}
			for _, ci := range large {
				if _, ok := inSmall[ci]; ok {
					touched[ci] = struct{}{}
				}
			}
			s.onFriendship(a, b)
		default:
			return nil, fmt.Errorf("core: unknown change kind %d", ch.Kind)
		}
	}
	if cs.HasRemovals() {
		// Non-monotone scores: re-rank everything from maintained state.
		s.prev = s.rankAll()
		return s.prev, nil
	}
	t := NewTopK(TopK)
	seen := make(map[int]struct{}, len(touched)+TopK)
	add := func(ci int) {
		if _, dup := seen[ci]; dup {
			return
		}
		seen[ci] = struct{}{}
		t.Consider(Entry{ID: s.comments.IDOf(ci), Score: s.cc[ci].score, Timestamp: s.commentTS[ci]})
	}
	for _, e := range s.prev {
		add(s.comments.MustIndex(e.ID))
	}
	for ci := range touched {
		add(ci)
	}
	s.prev = t.Result()
	return s.prev, nil
}
