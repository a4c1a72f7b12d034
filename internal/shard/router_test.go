package shard

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestRouterParkedCommentLifecycle is the direct unit test of the router's
// parked-comment lifecycle: a likeless comment belongs to no Q2 partition —
// it parks at the router and ranks through parkedTopK as a virtual
// partition — and its first like materializes it onto the liker's shard as
// a synthetic add, never as a group migration (no retraction op, no donor
// repair, no rebalance).
func TestRouterParkedCommentLifecycle(t *testing.T) {
	snap := &model.Snapshot{
		Posts: []model.Post{{ID: 1, Timestamp: 1}},
		Comments: []model.Comment{
			{ID: 10, Timestamp: 5, ParentID: 1, PostID: 1}, // liked: materializes
			{ID: 11, Timestamp: 7, ParentID: 1, PostID: 1}, // likeless: parks
		},
		Users: []model.User{{ID: 100}, {ID: 101}},
		Likes: []model.Like{{UserID: 100, CommentID: 10}},
	}
	r, err := newRouter(2, snap)
	if err != nil {
		t.Fatal(err)
	}

	// Initial analysis: the likeless comment parked, the liked one did not.
	if _, ok := r.parked[11]; !ok {
		t.Fatal("likeless snapshot comment 11 did not park")
	}
	if _, ok := r.parked[10]; ok {
		t.Fatal("liked comment 10 parked")
	}
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking = %q, want %q", got, "11")
	}

	// A new likeless comment parks and outranks the older parked one (equal
	// zero scores, newer timestamp wins).
	p1, err := r.route(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddComment, Comment: model.Comment{ID: 12, Timestamp: 9, ParentID: 1, PostID: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.parked[12]; !ok {
		t.Fatal("new likeless comment 12 did not park")
	}
	for s := 0; s < r.n; s++ {
		if len(p1.q2[s]) != 0 || len(p1.ops[s]) != 0 {
			t.Fatalf("parking routed Q2 work to shard %d: q2=%v ops=%v", s, p1.q2[s], p1.ops[s])
		}
	}
	if got := r.parkedTopK().String(); got != "12|11" {
		t.Fatalf("parked ranking = %q, want %q", got, "12|11")
	}

	// First like: the comment must materialize onto its liker's shard as a
	// synthetic AddComment followed by the like — and nothing else: no
	// retraction, no rebalance, no work on the other shard.
	likerShard := r.shardOf(userKey(101))
	p2, err := r.route(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.parked[12]; ok {
		t.Fatal("comment 12 still parked after its first like")
	}
	if got := r.shardOf(commentKey(12)); got != likerShard {
		t.Fatalf("comment 12 materialized on shard %d, want its liker's shard %d", got, likerShard)
	}
	if _, ok := r.states[likerShard].comments[12]; !ok {
		t.Fatal("comment 12 missing from its shard's partition state")
	}
	if r.rebalances != 0 {
		t.Fatalf("first like performed %d rebalances, want 0", r.rebalances)
	}
	for s := 0; s < r.n; s++ {
		if len(p2.ops[s]) != 0 {
			t.Fatalf("first like queued migration ops on shard %d: %+v", s, p2.ops[s])
		}
		if s != likerShard && len(p2.q2[s]) != 0 {
			t.Fatalf("first like routed Q2 work to shard %d: %v", s, p2.q2[s])
		}
	}
	stream := p2.q2[likerShard]
	if len(stream) != 2 ||
		stream[0].Kind != model.KindAddComment || stream[0].Comment.ID != 12 ||
		stream[1].Kind != model.KindAddLike || stream[1].Like.CommentID != 12 {
		t.Fatalf("materialization stream = %+v, want synthetic AddComment(12) then AddLike", stream)
	}

	// The remaining parked comment still ranks; the materialized one left
	// the virtual partition.
	if got := r.parkedTopK().String(); got != "11" {
		t.Fatalf("parked ranking after unpark = %q, want %q", got, "11")
	}
}

// TestParkedTopKMatchesBruteForce checks the heap-backed parked ranking
// against a full sort of the parked set over random park/unpark sequences.
// Timestamps are drawn from a small range, so ties on timestamp (decided
// by id) are common, and unparks hit the top entry, entries deep in the
// heap and everything in between; the heap must also hold exactly the
// live set.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, err := newRouter(2, &model.Snapshot{})
		if err != nil {
			t.Fatal(err)
		}
		var live []model.ID
		next := model.ID(1)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(9); {
			case op < 5 || len(live) == 0:
				c := model.Comment{ID: next, Timestamp: int64(rng.Intn(20)), PostID: 1}
				next++
				r.park(r.addNode(commentKey(c.ID), 0), c)
				live = append(live, c.ID)
			default:
				// Unpark the best-ranked comment half of the time.
				k := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					k = indexOf(live, r.parkedTopK()[0].ID)
				}
				r.unpark(r.node[commentKey(live[k])], live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if rng.Intn(3) == 0 {
				continue // let several changes pile up between queries
			}
			want := core.NewTopK(core.TopK)
			for _, id := range live {
				want.Consider(core.Entry{ID: id, Timestamp: r.parked[id].Timestamp})
			}
			if got, w := r.parkedTopK().String(), want.Result().String(); got != w {
				t.Fatalf("seed %d step %d: parkedTopK = %q, brute force %q", seed, step, got, w)
			}
			if r.parkedRank.Len() != len(r.parked) {
				t.Fatalf("seed %d step %d: heap holds %d entries for %d parked",
					seed, step, r.parkedRank.Len(), len(r.parked))
			}
		}
	}
}

func indexOf(ids []model.ID, id model.ID) int {
	for k, x := range ids {
		if x == id {
			return k
		}
	}
	return -1
}
