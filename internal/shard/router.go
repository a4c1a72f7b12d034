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
//     smaller (by materialized entities) group to the other shard: it
//     extracts the group from the Q2 engine that holds it
//     (core.Q2IncrementalCC.Extract), the donor retracts it and the
//     recipient adds the extracted changes.
//
//     Comments with no likes are not assigned to any shard at all: they
//     score exactly 0, so the router parks them in a ranking of its own
//     and merges that as one more (virtual) partition. A parked comment
//     materializes directly onto its first liker's shard, which keeps the
//     common arrival order "comment now, first like a few commits later"
//     migration-free — migrations happen only when a new edge genuinely
//     merges two populated groups across shards.
//
// The router keeps routing state only. The shards' Q2 engines hold the
// authoritative content of every partition (users, comments, likes and
// friendships); the router knows, per union-find node, its id, its group
// and the shard whose engine held it at the last commit.
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

// noShard is the per-node shard byte of a node no shard's engine holds: a
// parked comment, or an entity added by the commit being routed.
const noShard = 0xff

// maxShards is the largest shard count: shard numbers are stored in a
// byte per node, and noShard is reserved.
const maxShards = noShard

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

	// engines are the shards' Q2 engines. Migrations read them while
	// routing, which runs on the committing goroutine before any shard is
	// dispatched, so every worker is idle and each engine holds exactly
	// its state at the last commit.
	engines []*core.Q2IncrementalCC

	// users and comments map ids to union-find nodes.
	users, comments map[model.ID]int32

	// Per node. held is the shard whose Q2 engine held the node at the
	// last commit (noShard if none); q1 is a comment's Q1 shard, the hash
	// of its root post.
	ids    []model.ID
	kind   []nodeKind
	parent []int32
	next   []int32 // the members of a group form a ring through next
	held   []uint8
	q1     []uint8

	// Valid at a root: the group's member count, how many of its members
	// some engine holds, and its shard.
	size     []int32
	matCount []int32
	shard    []uint8

	// parkedRank ranks the parked (likeless) comments, keyed by node. It
	// is the only record of them: they belong to no Q2 partition, rank
	// here as a virtual one, and materialize onto their first liker's
	// shard from their ranked entry.
	parkedRank core.Ranking

	// moved collects the nodes migrated by the commit being routed. Their
	// held shard is updated after all merges, since a group that arrived
	// earlier in the commit is not yet in its new shard's engine.
	moved []int32

	rebalances int
}

func newRouter(n int, snap *model.Snapshot) (*router, error) {
	nodes := len(snap.Users) + len(snap.Comments)
	r := &router{
		n:        n,
		users:    make(map[model.ID]int32, len(snap.Users)),
		comments: make(map[model.ID]int32, len(snap.Comments)),
		ids:      make([]model.ID, 0, nodes),
		kind:     make([]nodeKind, 0, nodes),
		parent:   make([]int32, 0, nodes),
		next:     make([]int32, 0, nodes),
		held:     make([]uint8, 0, nodes),
		q1:       make([]uint8, 0, nodes),
		size:     make([]int32, 0, nodes),
		matCount: make([]int32, 0, nodes),
		shard:    make([]uint8, 0, nodes),
	}

	// Build the Q2 grouping of the initial snapshot, then spread whole
	// groups over the shards, largest first onto the least-loaded shard, so
	// the initial partition is balanced and deterministic.
	for _, u := range snap.Users {
		r.addNode(nodeUser, u.ID, 0)
	}
	for _, c := range snap.Comments {
		r.addComment(c, 0)
	}
	for _, l := range snap.Likes {
		if err := r.loadUnion(nodeUser, l.UserID, nodeComment, l.CommentID); err != nil {
			return nil, err
		}
	}
	for _, f := range snap.Friendships {
		if err := r.loadUnion(nodeUser, f.User1, nodeUser, f.User2); err != nil {
			return nil, err
		}
	}
	// A singleton comment node is a likeless comment (comment nodes only
	// ever union through likes): park it instead of assigning a shard.
	for _, c := range snap.Comments {
		if ni := r.comments[c.ID]; r.parent[ni] == ni && r.size[ni] == 1 {
			r.park(ni, c.ID, c.Timestamp)
		}
	}
	roots := make([]int32, 0)
	for i := range r.parent {
		ni := int32(i)
		if _, parked := r.parkedRank.Get(i); r.find(ni) == ni && !parked {
			roots = append(roots, ni)
		}
	}
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := roots[a], roots[b]
		if r.size[ra] != r.size[rb] {
			return r.size[ra] > r.size[rb]
		}
		return r.lessNode(r.minMember(ra), r.minMember(rb))
	})
	load := make([]int32, n)
	for _, root := range roots {
		s := 0
		for i := 1; i < n; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		r.shard[root] = uint8(s)
		load[s] += r.size[root]
		r.matCount[root] = r.size[root]
		r.eachMember(root, func(ni int32) { r.held[ni] = uint8(s) })
	}
	return r, nil
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

func (r *router) index(kind nodeKind) map[model.ID]int32 {
	if kind == nodeComment {
		return r.comments
	}
	return r.users
}

// addNode returns the node of (kind, id), creating a singleton group on
// shard if it is new.
func (r *router) addNode(kind nodeKind, id model.ID, shard uint8) int32 {
	m := r.index(kind)
	if ni, ok := m[id]; ok {
		return ni
	}
	ni := int32(len(r.parent))
	m[id] = ni
	r.ids = append(r.ids, id)
	r.kind = append(r.kind, kind)
	r.parent = append(r.parent, ni)
	r.next = append(r.next, ni)
	r.held = append(r.held, noShard)
	r.q1 = append(r.q1, noShard)
	r.size = append(r.size, 1)
	r.matCount = append(r.matCount, 0)
	r.shard = append(r.shard, shard)
	return ni
}

// addComment adds c's node and records its Q1 shard.
func (r *router) addComment(c model.Comment, shard uint8) int32 {
	ni := r.addNode(nodeComment, c.ID, shard)
	r.q1[ni] = uint8(hashShard(c.PostID, r.n))
	return ni
}

func (r *router) find(x int32) int32 {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

func (r *router) lookup(kind nodeKind, id model.ID) (int32, error) {
	ni, ok := r.index(kind)[id]
	if !ok {
		name := "user"
		if kind == nodeComment {
			name = "comment"
		}
		return 0, fmt.Errorf("shard: change references unknown %s %d", name, id)
	}
	return ni, nil
}

// shardOf returns the shard of the group of node ni.
func (r *router) shardOf(ni int32) int { return int(r.shard[r.find(ni)]) }

// eachMember calls f for every member of root's group.
func (r *router) eachMember(root int32, f func(ni int32)) {
	for x := root; ; {
		f(x)
		if x = r.next[x]; x == root {
			return
		}
	}
}

// lessNode orders nodes by kind, then id.
func (r *router) lessNode(a, b int32) bool {
	if r.kind[a] != r.kind[b] {
		return r.kind[a] < r.kind[b]
	}
	return r.ids[a] < r.ids[b]
}

func (r *router) minMember(root int32) int32 {
	least := root
	r.eachMember(root, func(ni int32) {
		if r.lessNode(ni, least) {
			least = ni
		}
	})
	return least
}

// loadUnion merges groups during initial-snapshot analysis, before shards
// are assigned — no migration bookkeeping.
func (r *router) loadUnion(ka nodeKind, a model.ID, kb nodeKind, b model.ID) error {
	na, err := r.lookup(ka, a)
	if err != nil {
		return err
	}
	nb, err := r.lookup(kb, b)
	if err != nil {
		return err
	}
	if ra, rb := r.find(na), r.find(nb); ra != rb {
		r.mergeRoots(ra, rb, 0)
	}
	return nil
}

// mergeRoots links two roots, the smaller under the larger, splices their
// member rings, and stamps the merged root with the given shard.
func (r *router) mergeRoots(ra, rb int32, shard uint8) int32 {
	if r.size[ra] < r.size[rb] {
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	r.next[ra], r.next[rb] = r.next[rb], r.next[ra]
	r.size[ra] += r.size[rb]
	r.matCount[ra] += r.matCount[rb]
	r.shard[ra] = shard
	return ra
}

// union merges the groups of a and b during a commit. If the groups live on
// different shards, the side with fewer materialized entities migrates to
// the other side's shard.
func (r *router) union(ka nodeKind, a model.ID, kb nodeKind, b model.ID, p *plan) error {
	na, err := r.lookup(ka, a)
	if err != nil {
		return err
	}
	nb, err := r.lookup(kb, b)
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
			(r.size[loser] > r.size[winner] ||
				(r.size[loser] == r.size[winner] && r.shard[loser] < r.shard[winner]))) {
		winner, loser = loser, winner
	}
	dest := r.shard[winner]
	if r.shard[loser] != dest && r.matCount[loser] > 0 {
		if err := r.migrate(loser, dest, p); err != nil {
			return err
		}
	}
	r.mergeRoots(winner, loser, dest)
	return nil
}

// migrate moves the materialized members of the group rooted at loser
// from its current shard to dest. Each member is extracted from the engine
// that held it at the last commit — normally the group's shard, but a part
// that arrived earlier in this commit is still in its old shard's engine —
// and the extracted changes are queued for the recipient. The donor gets
// the members as a retraction. All materialized members of a group live on
// its shard and all their Q2-relevant edges are intra-group, so the moved
// subgraph is complete and self-contained, exactly the precondition
// core.Q2IncrementalCC.Retract requires.
func (r *router) migrate(loser int32, dest uint8, p *plan) error {
	src := r.shard[loser]
	users := make([][]model.ID, r.n)
	comments := make([][]model.ID, r.n)
	r.eachMember(loser, func(ni int32) {
		h := r.held[ni]
		if h == noShard {
			return
		}
		if r.kind[ni] == nodeUser {
			users[h] = append(users[h], r.ids[ni])
		} else {
			comments[h] = append(comments[h], r.ids[ni])
		}
		r.moved = append(r.moved, ni)
	})
	ret := &model.Retraction{}
	var syn []model.Change
	for s := range users {
		if len(users[s]) == 0 && len(comments[s]) == 0 {
			continue
		}
		adds, err := r.engines[s].Extract(users[s], comments[s])
		if err != nil {
			return fmt.Errorf("shard %d: extract: %w", s, err)
		}
		syn = append(syn, adds...)
		ret.Users = append(ret.Users, users[s]...)
		ret.Comments = append(ret.Comments, comments[s]...)
	}
	p.ops[src] = append(p.ops[src], shardOp{retract: ret})
	p.ops[dest] = append(p.ops[dest], shardOp{synthetic: syn})
	r.rebalances++
	return nil
}

// materialize records that node ni, in the group rooted at root, is held
// by that group's shard from this commit on.
func (r *router) materialize(ni, root int32) {
	if r.held[ni] == noShard {
		r.held[ni] = r.shard[root]
		r.matCount[root]++
	}
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
			r.addNode(nodeUser, ch.User.ID, uint8(hashShard(ch.User.ID, r.n)))
		case model.KindAddComment:
			r.addComment(ch.Comment, uint8(hashShard(ch.Comment.ID, r.n)))
		case model.KindAddLike:
			if err := r.union(nodeUser, ch.Like.UserID, nodeComment, ch.Like.CommentID, p); err != nil {
				return nil, err
			}
		case model.KindAddFriendship:
			if err := r.union(nodeUser, ch.Friendship.User1, nodeUser, ch.Friendship.User2, p); err != nil {
				return nil, err
			}
		}
	}
	// Every migrated node is now held by its group's final shard.
	for _, ni := range r.moved {
		r.held[ni] = uint8(r.shardOf(ni))
	}
	r.moved = r.moved[:0]

	// Pass B: route each change to its final owner.
	for i := range cs.Changes {
		ch := cs.Changes[i]
		switch ch.Kind {
		case model.KindAddPost:
			s := hashShard(ch.Post.ID, r.n)
			p.q1[s] = append(p.q1[s], ch)
			for t := range p.q2 { // every Q2 partition needs every root post
				p.q2[t] = append(p.q2[t], ch)
			}
		case model.KindAddUser:
			ni, err := r.lookup(nodeUser, ch.User.ID)
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			r.materialize(ni, root)
			s := r.shard[root]
			p.q2[s] = append(p.q2[s], ch)
			for t := range p.q1 { // Q1 partitions hold all users (like targets)
				p.q1[t] = append(p.q1[t], ch)
			}
		case model.KindAddComment:
			// Q2: park the likeless comment at the router; it materializes
			// on a shard at its first like (keeping first likes
			// migration-free — no singleton group to move).
			ni, err := r.lookup(nodeComment, ch.Comment.ID)
			if err != nil {
				return nil, err
			}
			r.park(ni, ch.Comment.ID, ch.Comment.Timestamp)
			p.q1[r.q1[ni]] = append(p.q1[r.q1[ni]], ch)
		case model.KindAddLike, model.KindRemoveLike:
			ni, err := r.lookup(nodeComment, ch.Like.CommentID)
			if err != nil {
				return nil, err
			}
			root := r.find(ni)
			s := r.shard[root]
			if e, parked := r.parkedRank.Get(int(ni)); parked {
				// First like: the comment joins its liker's group's shard.
				// (Pass A already unioned them, and the parked side has no
				// materialized entities, so no migration was triggered.)
				r.parkedRank.Remove(int(ni))
				r.materialize(ni, root)
				p.q2[s] = append(p.q2[s], model.Change{Kind: model.KindAddComment,
					Comment: model.Comment{ID: e.ID, Timestamp: e.Timestamp}})
			}
			p.q2[s] = append(p.q2[s], ch)
			p.q1[r.q1[ni]] = append(p.q1[r.q1[ni]], ch)
		case model.KindAddFriendship, model.KindRemoveFriendship:
			ni, err := r.lookup(nodeUser, ch.Friendship.User1)
			if err != nil {
				return nil, err
			}
			s := r.shardOf(ni)
			p.q2[s] = append(p.q2[s], ch)
			// Q1 ignores the friends graph entirely; not routed.
		default:
			return nil, fmt.Errorf("shard: unknown change kind %d", ch.Kind)
		}
	}
	return p, nil
}

// park adds a likeless comment, node ni, to the parked ranking. A comment
// parks once, when it is added.
func (r *router) park(ni int32, id model.ID, ts int64) {
	r.parkedRank.Set(int(ni), core.Entry{ID: id, Score: 0, Timestamp: ts})
}

// parkedTopK ranks the parked (likeless, hence zero-scoring) comments as
// one more partition for the global Q2 merge.
func (r *router) parkedTopK() core.Result { return r.parkedRank.Top(core.TopK) }

// q1Cuts splits the initial snapshot into the shards' Q1 partitions in
// one pass: each shard gets its hashed posts with their comment subtrees
// and likes, and every user (likes reference users, and users are too
// cheap to be worth partitioning for Q1). Friendships are omitted — Q1
// never reads them.
func (r *router) q1Cuts(snap *model.Snapshot) []*model.Snapshot {
	out := make([]*model.Snapshot, r.n)
	for s := range out {
		out[s] = &model.Snapshot{Users: snap.Users}
	}
	for _, p := range snap.Posts {
		s := out[hashShard(p.ID, r.n)]
		s.Posts = append(s.Posts, p)
	}
	for _, c := range snap.Comments {
		s := out[r.q1[r.comments[c.ID]]]
		s.Comments = append(s.Comments, c)
	}
	for _, l := range snap.Likes {
		s := out[r.q1[r.comments[l.CommentID]]]
		s.Likes = append(s.Likes, l)
	}
	return out
}

// q2Cuts splits a snapshot into the shards' Q2 partitions by group in one
// pass: each shard gets the users and comments its engine holds and the
// edges among them, and every post (comments need their root wherever
// they land). Parked comments go nowhere. It reads only the held shards,
// so it leaves the union-find untouched.
func (r *router) q2Cuts(snap *model.Snapshot) []*model.Snapshot {
	out := make([]*model.Snapshot, r.n)
	for s := range out {
		out[s] = &model.Snapshot{Posts: snap.Posts}
	}
	for _, u := range snap.Users {
		s := out[r.held[r.users[u.ID]]]
		s.Users = append(s.Users, u)
	}
	for _, c := range snap.Comments {
		if h := r.held[r.comments[c.ID]]; h != noShard {
			out[h].Comments = append(out[h].Comments, c)
		}
	}
	for _, l := range snap.Likes {
		s := out[r.held[r.comments[l.CommentID]]]
		s.Likes = append(s.Likes, l)
	}
	for _, f := range snap.Friendships {
		s := out[r.held[r.users[f.User1]]]
		s.Friendships = append(s.Friendships, f)
	}
	return out
}
