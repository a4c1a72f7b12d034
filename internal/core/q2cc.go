package core

import (
	"fmt"

	"repro/internal/model"
)

// Q2IncrementalCC realizes the paper's future-work item (2): instead of
// re-running connected components over each affected comment's induced
// subgraph, it maintains the components themselves incrementally (in the
// spirit of Ediger et al., "Tracking structure of streaming social
// networks"). Each comment keeps its likers as one flat slice that doubles
// as a union-find forest (parent and, at a root, component size per
// liker), plus its Σ sizes² score:
//
//   - a new like adds the user and unions it with its friends that already
//     like the comment — O(L + deg(u)) for a comment with L likers;
//   - a new friendship unions the endpoints in every comment both users
//     like — O(likes(u1) + likes(u2)) to find those comments, O(L) each;
//   - each union updates the score in O(1) via (s₁+s₂)² − s₁² − s₂².
//
// A union-find cannot split, so removals repair locally instead:
//
//   - an unlike by a user with no co-liking friend (a singleton component)
//     is score −= 1; any other unlike re-derives only that user's old
//     component, by a search over the friendships among its members;
//   - an unfriend searches, in every comment both users like, from both
//     endpoints at once, one node per side in turn. When one side runs out
//     first the edge was a bridge and that side splits off; when the sides
//     meet nothing changes. Either way the search stops after about twice
//     the smaller side's work.
//
// Every comment whose score changes is re-ranked in the engine's Ranking,
// so no update ranks more than it touched. This is the Q2 engine the
// sharded server runs.
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

	cc      []commentComponents
	ranking Ranking
	prev    Result

	// retiredComments/retiredUsers mark entities subtracted by Retract (the
	// id maps are append-only, so they keep their dense index); a re-add
	// revives them.
	retiredComments map[int]struct{}
	retiredUsers    map[int]struct{}

	scratch ccScratch
}

// commentComponents is one comment's component state: its likers, each
// with a parent in the comment's union-find forest and, at a root, the
// component's size.
type commentComponents struct {
	elems []ccElem
	score int64
}

// ccElem is one liker of a comment.
type ccElem struct {
	user, parent, size int32
}

// ccScratch is the working memory of the per-comment searches, reused
// across updates. mark and at grow with the users, cmark with the
// comments. index(cc) makes mark[u] == epoch exactly for the users that
// like cc, at element at[u]; cmark does the same for the comment
// intersections of coLiked; owner is zero outside a search.
type ccScratch struct {
	mark, cmark      []uint32
	at               []int32
	epoch, cepoch    uint32
	owner            []int32
	members, starts  []int32
	queues           [][]int32
	grp, live, heads []int32
}

// NewQ2IncrementalCC returns the incremental-connected-components Q2
// engine.
func NewQ2IncrementalCC() *Q2IncrementalCC { return &Q2IncrementalCC{} }

// Name implements Solution.
func (*Q2IncrementalCC) Name() string { return "GraphBLAS Incremental (incremental CC)" }

// Query implements Solution.
func (*Q2IncrementalCC) Query() string { return "Q2" }

// Load implements Solution. Each comment's likers are collected first and
// its components then derived once, by the same search a removal uses, so
// loading costs O(Σ_likes (1 + deg(user))).
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
	}
	for _, u := range snap.Users {
		s.users.Add(u.ID)
	}
	s.cc = make([]commentComponents, s.comments.Len())
	s.scratch.cmark = make([]uint32, s.comments.Len())
	s.friends = make([][]int, s.users.Len())
	s.userLikes = make([][]int, s.users.Len())
	s.scratch.mark = make([]uint32, s.users.Len())
	s.scratch.at = make([]int32, s.users.Len())
	likes := make([][2]int, 0, len(snap.Likes))
	nlikes := make([]int32, s.comments.Len())
	for _, l := range snap.Likes {
		ci, ui, err := s.resolveLike("like", l)
		if err != nil {
			return err
		}
		likes = append(likes, [2]int{ci, ui})
		nlikes[ci]++
	}
	for ci, n := range nlikes {
		if n > 0 {
			// Room to grow, so the first like after loading does not copy
			// the whole slice.
			s.cc[ci].elems = make([]ccElem, 0, n+n/8+1)
		}
	}
	for _, l := range likes {
		s.cc[l[0]].elems = append(s.cc[l[0]].elems, ccElem{user: int32(l[1])})
	}
	for _, f := range snap.Friendships {
		a, b, err := s.resolveFriendship("friendship", f)
		if err != nil {
			return err
		}
		s.friends[a] = append(s.friends[a], b)
		s.friends[b] = append(s.friends[b], a)
		s.nFriends += 2
	}
	for ci := range s.cc {
		cc := &s.cc[ci]
		if len(cc.elems) == 0 {
			continue
		}
		// Drop duplicate likes, then derive the components.
		s.nextEpoch()
		kept := cc.elems[:0]
		for _, e := range cc.elems {
			if s.scratch.mark[e.user] != s.scratch.epoch {
				s.scratch.mark[e.user] = s.scratch.epoch
				kept = append(kept, ccElem{user: e.user})
				s.userLikes[e.user] = append(s.userLikes[e.user], ci)
			}
		}
		cc.elems = kept
		s.nLikes += len(kept)
		s.index(cc)
		s.label(cc)
	}
	return nil
}

// resolveLike maps a like's ids to dense indices.
func (s *Q2IncrementalCC) resolveLike(what string, l model.Like) (ci, ui int, err error) {
	ci, ok := s.comments.Index(l.CommentID)
	if !ok {
		return 0, 0, fmt.Errorf("core: %s references unknown comment %d", what, l.CommentID)
	}
	ui, ok = s.users.Index(l.UserID)
	if !ok {
		return 0, 0, fmt.Errorf("core: %s references unknown user %d", what, l.UserID)
	}
	return ci, ui, nil
}

// resolveFriendship maps a friendship's ids to dense indices.
func (s *Q2IncrementalCC) resolveFriendship(what string, f model.Friendship) (a, b int, err error) {
	a, ok := s.users.Index(f.User1)
	if !ok {
		return 0, 0, fmt.Errorf("core: %s references unknown user %d", what, f.User1)
	}
	b, ok = s.users.Index(f.User2)
	if !ok {
		return 0, 0, fmt.Errorf("core: %s references unknown user %d", what, f.User2)
	}
	return a, b, nil
}

// nextEpoch unmarks every user in O(1).
func (s *Q2IncrementalCC) nextEpoch() {
	sc := &s.scratch
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
}

// index marks cc's likers in the user scratch (see ccScratch), in O(L).
func (s *Q2IncrementalCC) index(cc *commentComponents) {
	s.nextEpoch()
	sc := &s.scratch
	for e, el := range cc.elems {
		sc.mark[el.user] = sc.epoch
		sc.at[el.user] = int32(e)
	}
}

// elem returns user u's element in the comment last indexed.
func (s *Q2IncrementalCC) elem(u int) (int32, bool) {
	if s.scratch.mark[u] == s.scratch.epoch {
		return s.scratch.at[u], true
	}
	return -1, false
}

// coLiked calls f for every comment both users like, in
// O(likes(a) + likes(b)).
func (s *Q2IncrementalCC) coLiked(a, b int, f func(ci int)) {
	la, lb := s.userLikes[a], s.userLikes[b]
	if len(la) == 0 || len(lb) == 0 {
		return
	}
	sc := &s.scratch
	sc.cepoch++
	if sc.cepoch == 0 {
		clear(sc.cmark)
		sc.cepoch = 1
	}
	for _, ci := range la {
		sc.cmark[ci] = sc.cepoch
	}
	for _, ci := range lb {
		if sc.cmark[ci] == sc.cepoch {
			f(ci)
		}
	}
}

// find returns the root of element x, halving the path on the way.
func (cc *commentComponents) find(x int32) int32 {
	for cc.elems[x].parent != x {
		p := cc.elems[x].parent
		cc.elems[x].parent = cc.elems[p].parent
		x = p
	}
	return x
}

// union merges the components of elements x and y by size and updates the
// score by (s₁+s₂)² − s₁² − s₂², reporting whether they were apart.
func (cc *commentComponents) union(x, y int32) bool {
	rx, ry := cc.find(x), cc.find(y)
	if rx == ry {
		return false
	}
	if cc.elems[rx].size < cc.elems[ry].size {
		rx, ry = ry, rx
	}
	s1, s2 := int64(cc.elems[rx].size), int64(cc.elems[ry].size)
	cc.elems[ry].parent = rx
	cc.elems[rx].size += cc.elems[ry].size
	cc.score += 2 * s1 * s2
	return true
}

// removeSingleton deletes element e, which must be a one-element
// component, by moving the last element into its place.
func (cc *commentComponents) removeSingleton(e int32) {
	last := int32(len(cc.elems) - 1)
	if e != last {
		moved := cc.elems[last]
		if moved.parent == last {
			moved.parent = e
		}
		cc.elems[e] = moved
		for x := range cc.elems[:last] {
			if cc.elems[x].parent == last {
				cc.elems[x].parent = e
			}
		}
	}
	cc.elems = cc.elems[:last]
	cc.score--
}

// collect gathers the elements of root r's component into scratch.members.
func (s *Q2IncrementalCC) collect(cc *commentComponents, r int32) []int32 {
	m := s.scratch.members[:0]
	for x := range cc.elems {
		if cc.find(int32(x)) == r {
			m = append(m, int32(x))
		}
	}
	s.scratch.members = m
	return m
}

// label derives cc's components from scratch, by one search per component
// over the friendships among its likers, and sets its score. cc must be
// indexed. Cost: O(L) plus the likers' friend lists.
func (s *Q2IncrementalCC) label(cc *commentComponents) {
	seen := s.owners(len(cc.elems))
	cc.score = 0
	for m := range cc.elems {
		if seen[m] != 0 {
			continue
		}
		seen[m] = 1
		q := append(s.scratch.members[:0], int32(m))
		for h := 0; h < len(q); h++ {
			x := q[h]
			cc.elems[x].parent = int32(m)
			for _, f := range s.friends[cc.elems[x].user] {
				if fe, ok := s.elem(f); ok && seen[fe] == 0 {
					seen[fe] = 1
					q = append(q, fe)
				}
			}
		}
		n := int64(len(q))
		cc.elems[m].size = int32(n)
		cc.score += n * n
		s.scratch.members = q
	}
	clear(seen[:len(cc.elems)])
}

// owners returns the per-element search scratch, at least n long and all
// zero.
func (s *Q2IncrementalCC) owners(n int) []int32 {
	for len(s.scratch.owner) < n {
		s.scratch.owner = append(s.scratch.owner, 0)
	}
	return s.scratch.owner
}

// reconnect repairs root r's component after friendships among its
// members were lost: the users at elements starts lost an edge between
// them (an unfriend), or all lost their edges to the user at element skip
// (an unlike; skip ≥ 0 is cut out as a singleton). Every piece the
// component can fall into holds a start, so one search grows from each
// start, one element per search in turn, over the remaining friendships
// among the likers. Searches that meet join one group. A group whose
// searches all run out has found a whole piece; once at most one group is
// still growing, the pieces found split off and everything else stays
// together. The searches thus stop after about len(starts) times the work
// of all pieces but the largest. It reports whether the component changed;
// when the starts reconnect and nothing was cut out, it did not. cc must
// be indexed.
func (s *Q2IncrementalCC) reconnect(cc *commentComponents, r int32, starts []int32, skip int32) bool {
	sc := &s.scratch
	k := len(starts)
	owner := s.owners(len(cc.elems))
	// Searches are numbered 1..k (owner 0 means unvisited); grp is a
	// union-find over them, and at a group's root live counts its
	// searches still growing.
	for len(sc.queues) <= k {
		sc.queues = append(sc.queues, nil)
	}
	sc.grp, sc.live, sc.heads = sc.grp[:0], sc.live[:0], sc.heads[:0]
	for i := 0; i <= k; i++ {
		sc.grp = append(sc.grp, int32(i))
		sc.live = append(sc.live, 1)
		sc.heads = append(sc.heads, 0)
	}
	if skip >= 0 {
		owner[skip] = -1
	}
	growing, split := 0, false
	for i, x := range starts {
		if owner[x] != 0 { // a duplicate start
			sc.queues[i+1] = sc.queues[i+1][:0]
			sc.live[i+1] = 0
			continue
		}
		owner[x] = int32(i + 1)
		sc.queues[i+1] = append(sc.queues[i+1][:0], x)
		growing++
	}
	group := func(i int32) int32 {
		for sc.grp[i] != i {
			sc.grp[i] = sc.grp[sc.grp[i]]
			i = sc.grp[i]
		}
		return i
	}
	for growing > 1 {
		for i := 1; i <= k && growing > 1; i++ {
			q := sc.queues[i]
			if int(sc.heads[i]) == len(q) {
				continue
			}
			x := q[sc.heads[i]]
			sc.heads[i]++
			for _, f := range s.friends[cc.elems[x].user] {
				fe, ok := s.elem(f)
				if !ok {
					continue
				}
				switch o := owner[fe]; {
				case o == 0:
					owner[fe] = int32(i)
					q = append(q, fe)
				case o > 0:
					if gi, gj := group(int32(i)), group(o); gi != gj {
						sc.grp[gj] = gi
						sc.live[gi] += sc.live[gj]
						growing--
					}
				}
			}
			sc.queues[i] = q
			if int(sc.heads[i]) == len(q) {
				g := group(int32(i))
				if sc.live[g]--; sc.live[g] == 0 {
					growing--
					split = true
				}
			}
		}
	}
	if !split && skip < 0 {
		for i := 1; i <= k; i++ {
			for _, x := range sc.queues[i] {
				owner[x] = 0
			}
		}
		return false
	}
	// Relabel: each finished group is a piece rooted at its first start;
	// the rest stays together under the start of the group still growing.
	rest := int32(-1)
	for i := 1; i <= k && rest < 0; i++ {
		if len(sc.queues[i]) > 0 && sc.live[group(int32(i))] > 0 {
			rest = sc.queues[i][0]
		}
	}
	sz := int64(cc.elems[r].size)
	cc.score -= sz * sz
	members := s.collect(cc, r)
	for _, x := range members {
		cc.elems[x].size = 0
	}
	for _, x := range members {
		root := rest
		if o := owner[x]; o > 0 {
			if g := group(o); sc.live[g] == 0 {
				root = sc.queues[g][0]
			}
		} else if o < 0 {
			root = x
		}
		if root < 0 {
			// No start at all: the component kept no friendship to search
			// (only a retraction that was not self-contained leaves that).
			root = x
		}
		cc.elems[x].parent = root
		cc.elems[root].size++
		owner[x] = 0
	}
	for _, x := range members {
		if cc.elems[x].parent == x {
			n := int64(cc.elems[x].size)
			cc.score += n * n
		}
	}
	return true
}

// onLike ingests a likes edge (comment ci ← user ui).
func (s *Q2IncrementalCC) onLike(ci, ui int) {
	cc := &s.cc[ci]
	s.index(cc)
	if _, dup := s.elem(ui); dup {
		return
	}
	e := int32(len(cc.elems))
	cc.elems = append(cc.elems, ccElem{user: int32(ui), parent: e, size: 1})
	cc.score++ // new singleton: +1²
	for _, f := range s.friends[ui] {
		if fe, ok := s.elem(f); ok {
			cc.union(e, fe)
		}
	}
	s.userLikes[ui] = append(s.userLikes[ui], ci)
	s.nLikes++
	s.rank(ci)
}

// onFriendship ingests an undirected friends edge.
func (s *Q2IncrementalCC) onFriendship(a, b int) {
	s.coLiked(a, b, func(ci int) {
		cc := &s.cc[ci]
		ea, eb, ok := cc.pair(a, b)
		if ok && cc.union(ea, eb) {
			s.rank(ci)
		}
	})
	s.friends[a] = append(s.friends[a], b)
	s.friends[b] = append(s.friends[b], a)
	s.nFriends += 2
}

// pair finds the elements of users a and b in one scan.
func (cc *commentComponents) pair(a, b int) (ea, eb int32, ok bool) {
	ea, eb = -1, -1
	for e, el := range cc.elems {
		switch int(el.user) {
		case a:
			ea = int32(e)
		case b:
			eb = int32(e)
		}
	}
	return ea, eb, ea >= 0 && eb >= 0
}

// onUnlike ingests a like removal: a singleton liker just leaves; any
// other is cut out of its component, which is then reconnected from the
// user's co-liking friends (see reconnect).
func (s *Q2IncrementalCC) onUnlike(ci, ui int) {
	cc := &s.cc[ci]
	s.index(cc)
	e, ok := s.elem(ui)
	if !ok {
		return
	}
	var removed bool
	if s.userLikes[ui], removed = removeFrom(s.userLikes[ui], ci); removed {
		s.nLikes--
	}
	if r := cc.find(e); cc.elems[r].size > 1 {
		// Every piece the component falls into holds a co-liking friend.
		starts := s.scratch.starts[:0]
		for _, f := range s.friends[ui] {
			if fe, ok := s.elem(f); ok {
				starts = append(starts, fe)
			}
		}
		s.scratch.starts = starts
		s.reconnect(cc, r, starts, e)
	}
	cc.removeSingleton(e)
	s.rank(ci)
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

// onUnfriend ingests a friendship removal: drop the adjacency, then, in
// every comment both users like (the only comments whose components the
// edge could have been holding together), reconnect from both endpoints;
// the component changes only when the edge was a bridge.
func (s *Q2IncrementalCC) onUnfriend(a, b int) {
	var removed bool
	if s.friends[a], removed = removeFrom(s.friends[a], b); removed {
		s.nFriends--
	}
	if s.friends[b], removed = removeFrom(s.friends[b], a); removed {
		s.nFriends--
	}
	s.coLiked(a, b, func(ci int) {
		cc := &s.cc[ci]
		s.index(cc)
		ea, okA := s.elem(a)
		eb, okB := s.elem(b)
		if !okA || !okB {
			return
		}
		r := cc.find(ea)
		if cc.find(eb) != r {
			return
		}
		s.scratch.starts = append(s.scratch.starts[:0], ea, eb)
		if s.reconnect(cc, r, s.scratch.starts, -1) {
			s.rank(ci)
		}
	})
}

// rank re-ranks comment ci from its maintained score; retired comments
// stay out of the ranking.
func (s *Q2IncrementalCC) rank(ci int) {
	if _, gone := s.retiredComments[ci]; gone {
		return
	}
	s.ranking.Set(ci, Entry{ID: s.comments.IDOf(ci), Score: s.cc[ci].score, Timestamp: s.commentTS[ci]})
}

// Initial implements Solution: scores are already maintained, so the first
// evaluation ranks every comment once.
func (s *Q2IncrementalCC) Initial() (Result, error) {
	for ci := range s.cc {
		s.rank(ci)
	}
	s.prev = s.ranking.Top(TopK)
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
// comments drop their component state and leave the ranking, and both stay
// retired until a re-add revives them. Self-containment means no surviving
// user or comment references the retracted set, so no surviving score
// changes.
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
		s.cc[ci] = commentComponents{}
		s.retiredComments[ci] = struct{}{}
		s.ranking.Remove(ci)
	}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}

// Update implements Solution: feed each change through its event handler;
// the handlers re-rank every comment whose score they change.
func (s *Q2IncrementalCC) Update(cs *model.ChangeSet) (Result, error) {
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddPost:
			s.posts.Add(ch.Post.ID)
		case model.KindAddUser:
			idx := s.users.Add(ch.User.ID)
			if idx == len(s.friends) {
				s.friends = append(s.friends, nil)
				s.userLikes = append(s.userLikes, nil)
				s.scratch.mark = append(s.scratch.mark, 0)
				s.scratch.at = append(s.scratch.at, 0)
			}
			delete(s.retiredUsers, idx) // a re-add revives a retracted user
		case model.KindAddComment:
			idx := s.comments.Add(ch.Comment.ID)
			if idx == len(s.cc) {
				s.cc = append(s.cc, commentComponents{})
				s.commentTS = append(s.commentTS, ch.Comment.Timestamp)
				s.scratch.cmark = append(s.scratch.cmark, 0)
			}
			delete(s.retiredComments, idx) // a re-add revives a retracted comment
			s.rank(idx)
		case model.KindAddLike:
			ci, ui, err := s.resolveLike("like", ch.Like)
			if err != nil {
				return nil, err
			}
			s.onLike(ci, ui)
		case model.KindRemoveLike:
			ci, ui, err := s.resolveLike("unlike", ch.Like)
			if err != nil {
				return nil, err
			}
			s.onUnlike(ci, ui)
		case model.KindAddFriendship:
			a, b, err := s.resolveFriendship("friendship", ch.Friendship)
			if err != nil {
				return nil, err
			}
			s.onFriendship(a, b)
		case model.KindRemoveFriendship:
			a, b, err := s.resolveFriendship("unfriend", ch.Friendship)
			if err != nil {
				return nil, err
			}
			s.onUnfriend(a, b)
		default:
			return nil, fmt.Errorf("core: unknown change kind %d", ch.Kind)
		}
	}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}
