package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// TestRouterParkedCommentLifecycle is the direct unit test of the router's
// parked-comment lifecycle: a likeless comment belongs to no Q2 partition —
// it parks at the router and ranks through parkedTopK as a virtual
// partition — and its first like materializes it onto the liker's shard as
// a synthetic add, never as a group migration (no retraction op, no donor
// repair, no rebalance). The liker's shard's engine, fed the routed
// streams, then holds the comment.
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
	parked := func(id model.ID) bool {
		_, ok := r.parkedRank.Get(int(r.comments[id]))
		return ok
	}
	likerShard := r.shardOf(r.users[101])
	engine := core.NewQ2IncrementalCC()
	if err := engine.Load(r.q2Cuts(snap)[likerShard]); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Initial(); err != nil {
		t.Fatal(err)
	}

	// Initial analysis: the likeless comment parked, the liked one did not.
	if !parked(11) {
		t.Fatal("likeless snapshot comment 11 did not park")
	}
	if parked(10) {
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
	if !parked(12) {
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
	p2, err := r.route(&model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddLike, Like: model.Like{UserID: 101, CommentID: 12}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if parked(12) {
		t.Fatal("comment 12 still parked after its first like")
	}
	if got := r.shardOf(r.comments[12]); got != likerShard {
		t.Fatalf("comment 12 materialized on shard %d, want its liker's shard %d", got, likerShard)
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
	for _, cs := range [][]model.Change{p1.q2[likerShard], stream} {
		if _, err := engine.Update(&model.ChangeSet{Changes: cs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Extract(nil, []model.ID{12}); err != nil {
		t.Fatalf("comment 12 missing from its shard's engine: %v", err)
	}
	if got := engine.Stats(); got.Comments != 1 || got.Users != 1 {
		t.Fatalf("liker's shard engine holds %+v, want comment 12 and user 101 only", got)
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
// live set and rank each live comment's own entry.
func TestParkedTopKMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, err := newRouter(2, &model.Snapshot{})
		if err != nil {
			t.Fatal(err)
		}
		var live []model.ID
		ts := make(map[model.ID]int64)
		next := model.ID(1)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(9); {
			case op < 5 || len(live) == 0:
				c := model.Comment{ID: next, Timestamp: int64(rng.Intn(20)), PostID: 1}
				next++
				r.park(r.addNode(nodeComment, c.ID, 0), c.ID, c.Timestamp)
				ts[c.ID] = c.Timestamp
				live = append(live, c.ID)
			default:
				// Unpark the best-ranked comment half of the time.
				k := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					k = indexOf(live, r.parkedTopK()[0].ID)
				}
				r.parkedRank.Remove(int(r.comments[live[k]]))
				live = append(live[:k], live[k+1:]...)
			}
			if rng.Intn(3) == 0 {
				continue // let several changes pile up between queries
			}
			want := core.NewTopK(core.TopK)
			for _, id := range live {
				want.Consider(core.Entry{ID: id, Timestamp: ts[id]})
				if e, ok := r.parkedRank.Get(int(r.comments[id])); !ok || e.ID != id || e.Timestamp != ts[id] {
					t.Fatalf("seed %d step %d: parked entry of %d = %+v, %v", seed, step, id, e, ok)
				}
			}
			if got, w := r.parkedTopK().String(), want.Result().String(); got != w {
				t.Fatalf("seed %d step %d: parkedTopK = %q, brute force %q", seed, step, got, w)
			}
			if r.parkedRank.Len() != len(live) {
				t.Fatalf("seed %d step %d: heap holds %d entries for %d parked",
					seed, step, r.parkedRank.Len(), len(live))
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

// TestRouterMemoryPerNode pins that the router keeps routing state only:
// at sf 16 the heap newRouter keeps, measured after GC, is at most 150 B
// per union-find node (user or comment). The partition content lives in
// the shards' engines.
func TestRouterMemoryPerNode(t *testing.T) {
	snap := datagen.Generate(datagen.Config{ScaleFactor: 16, Seed: 1, ChangeSets: 1}).Snapshot
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := newRouter(2, snap)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	nodes := len(snap.Users) + len(snap.Comments)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(nodes)
	t.Logf("router keeps %.1f B per node over %d nodes", perNode, nodes)
	if perNode > 150 {
		t.Fatalf("router keeps %.1f B per union-find node at sf 16, limit 150", perNode)
	}
}
