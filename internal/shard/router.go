package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
)

// The router owns the partitioning decisions of the sharded runtime. The
// two queries partition along different natural axes, so every change is
// routed twice — once per engine family:
//
//   - Q1 (influential posts) scores a post from its comment subtree alone,
//     so posts hash onto shards and every comment (and like on it) follows
//     its root post. No rebalancing is ever needed.
//
//   - Q2 (influential comments) scores a comment from the friendship
//     subgraph induced by its likers, so a comment must be co-located with
//     all of its likers and the friendships between them. The router
//     maintains a union-find over users ∪ comments where a friendship
//     unions its two users and a like unions the user with the comment;
//     each resulting group lives wholly on one shard, which makes every
//     shard's Q2 scores exact for the comments it owns. When a new edge
//     merges two groups living on different shards, the router migrates the
//     smaller (by materialized entities) group to the other shard: the
//     donor retracts it from its Q2 engine and the recipient adds it.
//
//     Comments with no likes are not assigned to any shard at all: they
//     score exactly 0, so the router parks them locally and ranks the
//     parked set as one more (virtual) partition at merge time. A parked
//     comment materializes directly onto its first liker's shard, which
//     keeps the common arrival order "comment now, first like a few
//     commits later" migration-free — migrations happen only when a new
//     edge genuinely merges two populated groups across shards.
//
// Removals (the future-work workload) never split router groups: a
// union-find cannot un-union, so the grouping over-approximates the true
// connectivity. Over-grouping only costs parallelism, never correctness —
// co-location requirements are monotone in the edge history.
type nodeKind uint8

const (
	nodeUser nodeKind = iota
	nodeComment
)

// nodeKey identifies one union-find node (a user or a comment).
type nodeKey struct {
	kind nodeKind
	id   model.ID
}

func userKey(id model.ID) nodeKey    { return nodeKey{nodeUser, id} }
func commentKey(id model.ID) nodeKey { return nodeKey{nodeComment, id} }

func (k nodeKey) less(o nodeKey) bool {
	if k.kind != o.kind {
		return k.kind < o.kind
	}
	return k.id < o.id
}

// q2state is the authoritative content of one shard's Q2 partition: the
// users and comments it owns plus the edges among them. It is what moves
// during a rebalance and what a shard's Q2 engine loads from at startup.
type q2state struct {
	users    map[model.ID]struct{}
	comments map[model.ID]model.Comment
	likes    map[model.ID]map[model.ID]struct{} // comment → likers
	friends  map[model.ID]map[model.ID]struct{} // user → friends (both directions)
}

func newQ2State() *q2state {
	return &q2state{
		users:    make(map[model.ID]struct{}),
		comments: make(map[model.ID]model.Comment),
		likes:    make(map[model.ID]map[model.ID]struct{}),
		friends:  make(map[model.ID]map[model.ID]struct{}),
	}
}

// shardOp is one migration-bookkeeping step for a single shard, applied
// before the shard's routed q2 stream. Exactly one field is set: retract is
// the donor side of a group migration (a self-contained subtractive delta
// for core.Q2IncrementalCC.Retract), synthetic the recipient side (the
// moved subgraph replayed as adds). Ops are chronological — a shard that
// receives a group and then donates the merged result in the same commit
// sees the add batch before the retraction.
type shardOp struct {
	retract   *model.Retraction
	synthetic []model.Change
}

// plan is the per-commit output of routing: one change list per shard and
// engine family, plus the chronological migration ops per shard.
type plan struct {
	q1  [][]model.Change
	q2  [][]model.Change
	ops [][]shardOp
}

func newPlan(n int) *plan {
	return &plan{
		q1:  make([][]model.Change, n),
		q2:  make([][]model.Change, n),
		ops: make([][]shardOp, n),
	}
}

// router holds all partitioning state. It is confined to the runtime's
// committing goroutine; nothing here is safe for concurrent use.
type router struct {
	n int

	// Q1 routing.
	postShard   map[model.ID]int
	commentRoot map[model.ID]model.ID // comment → root post

	// posts is every post ever seen; posts are broadcast to all Q2
	// partitions (comments need their root to exist wherever they land).
	posts []model.Post

	// parked holds the likeless comments, which belong to no Q2 partition:
	// they score exactly 0, are ranked by parkedTopK as a virtual
	// partition, and materialize onto their first liker's shard.
	parked map[model.ID]model.Comment
	// parkedRank ranks the parked comments, keyed by union-find node, so
	// parking, unparking and ranking each cost O(log parked).
	parkedRank core.Ranking

	// Union-find over users ∪ comments with per-root group state.
	node         map[nodeKey]int
	parent       []int
	keys         []nodeKey
	members      [][]int // valid at root: node indices in the group
	groupShard   []int   // valid at root
	matCount     []int   // valid at root: materialized members
	materialized []bool  // per node: entity data present in its shard's q2state

	states []*q2state

	rebalances int
}

func newRouter(n int, snap *model.Snapshot) (*router, error) {
	r := &router{
		n:           n,
		postShard:   make(map[model.ID]int, len(snap.Posts)),
		commentRoot: make(map[model.ID]model.ID, len(snap.Comments)),
		node:        make(map[nodeKey]int, len(snap.Users)+len(snap.Comments)),
		parked:      make(map[model.ID]model.Comment),
		states:      make([]*q2state, n),
	}
	for s := 0; s < n; s++ {
		r.states[s] = newQ2State()
	}

	for _, p := range snap.Posts {
		r.posts = append(r.posts, p)
		r.postShard[p.ID] = hashShard(p.ID, n)
	}
	for _, c := range snap.Comments {
		r.commentRoot[c.ID] = c.PostID
	}

	// Build the Q2 grouping of the initial snapshot, then spread whole
	// groups over the shards, largest first onto the least-loaded shard, so
	// the initial partition is balanced and deterministic.
	for _, u := range snap.Users {
		r.addNode(userKey(u.ID), 0)
	}
	for _, c := range snap.Comments {
		r.addNode(commentKey(c.ID), 0)
	}
	for _, l := range snap.Likes {
		if err := r.loadUnion(userKey(l.UserID), commentKey(l.CommentID)); err != nil {
			return nil, err
		}
	}
	for _, f := range snap.Friendships {
		if err := r.loadUnion(userKey(f.User1), userKey(f.User2)); err != nil {
			return nil, err
		}
	}
	// A singleton comment node is a likeless comment (comment nodes only
	// ever union through likes): park it instead of assigning a shard.
	commentByID := make(map[model.ID]model.Comment, len(snap.Comments))
	for _, c := range snap.Comments {
		commentByID[c.ID] = c
	}
	roots := make([]int, 0)
	for i := range r.parent {
		if r.find(i) != i {
			continue
		}
		if len(r.members[i]) == 1 && r.keys[i].kind == nodeComment {
			r.park(i, commentByID[r.keys[i].id])
			continue
		}
		roots = append(roots, i)
	}
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := roots[a], roots[b]
		if len(r.members[ra]) != len(r.members[rb]) {
			return len(r.members[ra]) > len(r.members[rb])
		}
		return r.minMemberKey(ra).less(r.minMemberKey(rb))
	})
	load := make([]int, n)
	for _, root := range roots {
		s := 0
		for i := 1; i < n; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		r.groupShard[root] = s
		load[s] += len(r.members[root])
		r.matCount[root] = len(r.members[root])
		for _, ni := range r.members[root] {
			r.materialized[ni] = true
		}
	}

	// Materialize the per-shard Q2 partition content.
	for _, u := range snap.Users {
		r.states[r.shardOf(userKey(u.ID))].users[u.ID] = struct{}{}
	}
	for _, c := range snap.Comments {
		if _, isParked := r.parked[c.ID]; isParked {
			continue
		}
		r.states[r.shardOf(commentKey(c.ID))].comments[c.ID] = c
	}
	for _, l := range snap.Likes {
		st := r.states[r.shardOf(commentKey(l.CommentID))]
		addEdge(st.likes, l.CommentID, l.UserID)
	}
	for _, f := range snap.Friendships {
		st := r.states[r.shardOf(userKey(f.User1))]
		addEdge(st.friends, f.User1, f.User2)
		addEdge(st.friends, f.User2, f.User1)
	}
	return r, nil
}

func addEdge(m map[model.ID]map[model.ID]struct{}, a, b model.ID) {
	s, ok := m[a]
	if !ok {
		s = make(map[model.ID]struct{})
		m[a] = s
	}
	s[b] = struct{}{}
}

// hashShard places ids deterministically (splitmix64 finalizer).
func hashShard(id model.ID, n int) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

func (r *router) addNode(k nodeKey, shard int) int {
	if ni, ok := r.node[k]; ok {
		return ni
	}
	ni := len(r.parent)
	r.node[k] = ni
	r.parent = append(r.parent, ni)
	r.keys = append(r.keys, k)
	r.members = append(r.members, []int{ni})
	r.groupShard = append(r.groupShard, shard)
	r.matCount = append(r.matCount, 0)
	r.materialized = append(r.materialized, false)
	return ni
}

func (r *router) find(x int) int {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

func (r *router) lookup(k nodeKey) (int, error) {
	ni, ok := r.node[k]
	if !ok {
		kind := "user"
		if k.kind == nodeComment {
			kind = "comment"
		}
		return 0, fmt.Errorf("shard: change references unknown %s %d", kind, k.id)
	}
	return ni, nil
}

func (r *router) shardOf(k nodeKey) int { return r.groupShard[r.find(r.node[k])] }

func (r *router) minMemberKey(root int) nodeKey {
	min := r.keys[r.members[root][0]]
	for _, ni := range r.members[root][1:] {
		if r.keys[ni].less(min) {
			min = r.keys[ni]
		}
	}
	return min
}

// loadUnion merges groups during initial-snapshot analysis, before shards
// are assigned — no migration bookkeeping.
func (r *router) loadUnion(a, b nodeKey) error {
	na, err := r.lookup(a)
	if err != nil {
		return err
	}
	nb, err := r.lookup(b)
	if err != nil {
		return err
	}
	ra, rb := r.find(na), r.find(nb)
	if ra == rb {
		return nil
	}
	r.mergeRoots(ra, rb, 0)
	return nil
}

// mergeRoots links two roots, concatenating the smaller member list into
// the larger (so members move O(log n) times over any union sequence), and
// stamps the merged root with the given shard.
func (r *router) mergeRoots(ra, rb, shard int) int {
	if len(r.members[ra]) < len(r.members[rb]) {
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	r.members[ra] = append(r.members[ra], r.members[rb]...)
	r.members[rb] = nil
	r.matCount[ra] += r.matCount[rb]
	r.groupShard[ra] = shard
	return ra
}

// union merges the groups of a and b during a commit. If the groups live on
// different shards, the side with fewer materialized entities migrates to
// the other side's shard: its entities and edges move between q2states, the
// donor shard receives the moved subgraph as a retraction, and the
// recipient receives synthetic add-changes replaying it.
func (r *router) union(a, b nodeKey, p *plan) error {
	na, err := r.lookup(a)
	if err != nil {
		return err
	}
	nb, err := r.lookup(b)
	if err != nil {
		return err
	}
	ra, rb := r.find(na), r.find(nb)
	if ra == rb {
		return nil
	}
	winner, loser := ra, rb
	if r.matCount[loser] > r.matCount[winner] ||
		(r.matCount[loser] == r.matCount[winner] &&
			(len(r.members[loser]) > len(r.members[winner]) ||
				(len(r.members[loser]) == len(r.members[winner]) && r.groupShard[loser] < r.groupShard[winner]))) {
		winner, loser = loser, winner
	}
	dest := r.groupShard[winner]
	if r.groupShard[loser] != dest && r.matCount[loser] > 0 {
		r.migrate(loser, dest, p)
	}
	r.mergeRoots(winner, loser, dest)
	return nil
}

// migrate moves the materialized entities of the group rooted at loser from
// its current shard to dest: the moved subgraph is expressed once as a
// keyed delta, queued for the donor as a retraction (its Q2 engine
// subtracts it) and for the recipient as synthetic add-changes. All
// materialized members of a group live on its shard and all their
// Q2-relevant edges are intra-group, so moving the member list moves a
// complete, self-contained subgraph — exactly the precondition
// core.Q2IncrementalCC.Retract requires.
func (r *router) migrate(loser, dest int, p *plan) {
	src := r.groupShard[loser]
	from, to := r.states[src], r.states[dest]
	ret := &model.Retraction{}
	var movedComments []model.Comment
	for _, ni := range r.members[loser] {
		if !r.materialized[ni] {
			continue
		}
		k := r.keys[ni]
		if k.kind == nodeUser {
			delete(from.users, k.id)
			to.users[k.id] = struct{}{}
			if adj, ok := from.friends[k.id]; ok {
				to.friends[k.id] = adj
				delete(from.friends, k.id)
			}
			ret.Users = append(ret.Users, k.id)
		} else {
			c := from.comments[k.id]
			delete(from.comments, k.id)
			to.comments[k.id] = c
			if likers, ok := from.likes[k.id]; ok {
				to.likes[k.id] = likers
				delete(from.likes, k.id)
			}
			ret.Comments = append(ret.Comments, c.ID)
			movedComments = append(movedComments, c)
		}
	}
	for _, c := range movedComments {
		for u := range to.likes[c.ID] {
			ret.Likes = append(ret.Likes, model.Like{UserID: u, CommentID: c.ID})
		}
	}
	// Both endpoints of every moved friendship migrate together, so the
	// u < v half of each adjacency set lists the edge exactly once.
	for _, u := range ret.Users {
		for v := range to.friends[u] {
			if u < v {
				ret.Friendships = append(ret.Friendships, model.Friendship{User1: u, User2: v})
			}
		}
	}

	// The recipient's synthetic add stream is the same delta replayed
	// additively: nodes first, then the edges among them.
	syn := make([]model.Change, 0, ret.Size())
	for _, id := range ret.Users {
		syn = append(syn, model.Change{Kind: model.KindAddUser, User: model.User{ID: id}})
	}
	for _, c := range movedComments {
		syn = append(syn, model.Change{Kind: model.KindAddComment, Comment: c})
	}
	for _, l := range ret.Likes {
		syn = append(syn, model.Change{Kind: model.KindAddLike, Like: l})
	}
	for _, f := range ret.Friendships {
		syn = append(syn, model.Change{Kind: model.KindAddFriendship, Friendship: f})
	}

	p.ops[src] = append(p.ops[src], shardOp{retract: ret})
	p.ops[dest] = append(p.ops[dest], shardOp{synthetic: syn})
	r.rebalances++
}

// route translates one validated change set into the per-shard plan. Pass A
// resolves all group merges (and migrations) first so that pass B can route
// every change against the final ownership — a change early in the set must
// not land on a shard that loses its group to a merge later in the set.
func (r *router) route(cs *model.ChangeSet) (*plan, error) {
	p := newPlan(r.n)

	// Pass A: create nodes for new entities, union along new edges.
	for i := range cs.Changes {
		ch := &cs.Changes[i]
		switch ch.Kind {
		case model.KindAddUser:
			r.addNode(userKey(ch.User.ID), hashShard(ch.User.ID, r.n))
		case model.KindAddComment:
			r.addNode(commentKey(ch.Comment.ID), hashShard(ch.Comment.ID, r.n))
		case model.KindAddLike:
			if err := r.union(userKey(ch.Like.UserID), commentKey(ch.Like.CommentID), p); err != nil {
				return nil, err
			}
		case model.KindAddFriendship:
			if err := r.union(userKey(ch.Friendship.User1), userKey(ch.Friendship.User2), p); err != nil {
				return nil, err
			}
		}
	}

	// Pass B: route each change to its final owner and keep the q2states
	// (the authoritative partition content) current.
	for i := range cs.Changes {
		ch := cs.Changes[i]
		switch ch.Kind {
		case model.KindAddPost:
			r.posts = append(r.posts, ch.Post)
			s := hashShard(ch.Post.ID, r.n)
			r.postShard[ch.Post.ID] = s
			p.q1[s] = append(p.q1[s], ch)
			for t := range p.q2 { // every Q2 partition needs every root post
				p.q2[t] = append(p.q2[t], ch)
			}
		case model.KindAddUser:
			ni, err := r.lookup(userKey(ch.User.ID))
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			s := r.groupShard[root]
			r.states[s].users[ch.User.ID] = struct{}{}
			if !r.materialized[ni] {
				r.materialized[ni] = true
				r.matCount[root]++
			}
			p.q2[s] = append(p.q2[s], ch)
			for t := range p.q1 { // Q1 partitions hold all users (like targets)
				p.q1[t] = append(p.q1[t], ch)
			}
		case model.KindAddComment:
			// Q2: park the likeless comment at the router; it materializes
			// on a shard at its first like (keeping first likes
			// migration-free — no singleton group to move).
			ni, err := r.lookup(commentKey(ch.Comment.ID))
			if err != nil {
				return nil, err
			}
			r.park(ni, ch.Comment)
			r.commentRoot[ch.Comment.ID] = ch.Comment.PostID
			ps, err := r.q1ShardOfComment(ch.Comment.ID)
			if err != nil {
				return nil, err
			}
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddLike, model.KindRemoveLike:
			ni, err := r.lookup(commentKey(ch.Like.CommentID))
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			s := r.groupShard[root]
			st := r.states[s]
			if c, wasParked := r.parked[ch.Like.CommentID]; wasParked {
				// First like: the comment joins its liker's group's shard.
				// (Pass A already unioned them, and the parked side has no
				// materialized entities, so no migration was triggered.)
				r.unpark(ni, c.ID)
				st.comments[c.ID] = c
				r.materialized[ni] = true
				r.matCount[root]++
				p.q2[s] = append(p.q2[s], model.Change{Kind: model.KindAddComment, Comment: c})
			}
			if ch.Kind == model.KindAddLike {
				addEdge(st.likes, ch.Like.CommentID, ch.Like.UserID)
			} else if likers, ok := st.likes[ch.Like.CommentID]; ok {
				delete(likers, ch.Like.UserID)
			}
			p.q2[s] = append(p.q2[s], ch)
			ps, err := r.q1ShardOfComment(ch.Like.CommentID)
			if err != nil {
				return nil, err
			}
			p.q1[ps] = append(p.q1[ps], ch)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			ni, err := r.lookup(userKey(ch.Friendship.User1))
			if err != nil {
				return nil, err
			}
			s := r.groupShard[r.find(ni)]
			st := r.states[s]
			if ch.Kind == model.KindAddFriendship {
				addEdge(st.friends, ch.Friendship.User1, ch.Friendship.User2)
				addEdge(st.friends, ch.Friendship.User2, ch.Friendship.User1)
			} else {
				if adj, ok := st.friends[ch.Friendship.User1]; ok {
					delete(adj, ch.Friendship.User2)
				}
				if adj, ok := st.friends[ch.Friendship.User2]; ok {
					delete(adj, ch.Friendship.User1)
				}
			}
			p.q2[s] = append(p.q2[s], ch)
			// Q1 ignores the friends graph entirely; not routed.
		default:
			return nil, fmt.Errorf("shard: unknown change kind %d", ch.Kind)
		}
	}
	return p, nil
}

func (r *router) q1ShardOfComment(commentID model.ID) (int, error) {
	postID, ok := r.commentRoot[commentID]
	if !ok {
		return 0, fmt.Errorf("shard: like references unknown comment %d", commentID)
	}
	s, ok := r.postShard[postID]
	if !ok {
		return 0, fmt.Errorf("shard: comment %d roots at unknown post %d", commentID, postID)
	}
	return s, nil
}

// q1Snapshot builds shard s's Q1 partition of the initial snapshot: its
// hashed posts with their comment subtrees and likes, and every user (likes
// reference users, and users are too cheap to be worth partitioning for
// Q1). Friendships are omitted — Q1 never reads them.
func (r *router) q1Snapshot(snap *model.Snapshot, s int) *model.Snapshot {
	out := &model.Snapshot{Users: snap.Users}
	for _, p := range snap.Posts {
		if r.postShard[p.ID] == s {
			out.Posts = append(out.Posts, p)
		}
	}
	for _, c := range snap.Comments {
		if r.postShard[c.PostID] == s {
			out.Comments = append(out.Comments, c)
		}
	}
	for _, l := range snap.Likes {
		if r.postShard[r.commentRoot[l.CommentID]] == s {
			out.Likes = append(out.Likes, l)
		}
	}
	return out
}

// park adds a likeless comment, union-find node ni, to the router-side
// parking. A comment parks once, when it is added.
func (r *router) park(ni int, c model.Comment) {
	r.parked[c.ID] = c
	r.parkedRank.Set(ni, core.Entry{ID: c.ID, Score: 0, Timestamp: c.Timestamp})
}

// unpark removes comment id, union-find node ni, at its first like.
func (r *router) unpark(ni int, id model.ID) {
	delete(r.parked, id)
	r.parkedRank.Remove(ni)
}

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }

// q2Snapshot renders shard s's current Q2 partition as a loadable
// snapshot: all posts (broadcast), plus the shard's owned users, comments
// and intra-partition edges. Used at startup.
func (r *router) q2Snapshot(s int) *model.Snapshot {
	st := r.states[s]
	out := &model.Snapshot{Posts: append([]model.Post(nil), r.posts...)}
	for id := range st.users {
		out.Users = append(out.Users, model.User{ID: id})
	}
	for _, c := range st.comments {
		out.Comments = append(out.Comments, c)
	}
	for c, likers := range st.likes {
		for u := range likers {
			out.Likes = append(out.Likes, model.Like{UserID: u, CommentID: c})
		}
	}
	for u, adj := range st.friends {
		for v := range adj {
			if u < v {
				out.Friendships = append(out.Friendships, model.Friendship{User1: u, User2: v})
			}
		}
	}
	return out
}
