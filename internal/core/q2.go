package core

import (
	"sync"

	"repro/internal/grb"
	"repro/internal/lagraph"
	"repro/internal/model"
)

// q2ScoreComment computes one comment's score (Fig. 4b, steps 1–4 of the
// batch algorithm): collect the comment's likers from the Likes matrix,
// extract the friendship subgraph they induce, find its connected
// components with FastSV, and sum the squared component sizes. Comments
// nobody likes score 0.
func q2ScoreComment(likes, friends *grb.Matrix[bool], ci int) (int64, error) {
	likers, err := grb.ExtractRow(likes, ci)
	if err != nil {
		return 0, err
	}
	if likers.NVals() == 0 {
		return 0, nil
	}
	userIdx, _ := likers.ExtractTuples()
	sub, err := grb.ExtractSubmatrix(friends, userIdx, userIdx)
	if err != nil {
		return 0, err
	}
	labels, err := lagraph.FastSV(sub)
	if err != nil {
		return 0, err
	}
	return lagraph.SumSquaredComponentSizes(labels), nil
}

// q2ScoreAll scores the given comments in parallel at comment granularity
// (the paper's OpenMP strategy) into the dense slice scores, which must
// have room for every comment index.
func q2ScoreAll(likes, friends *grb.Matrix[bool], commentIdx []int, scores []int64) error {
	var mu sync.Mutex
	var firstErr error
	grb.ParallelItems(len(commentIdx), func(k int) {
		ci := commentIdx[k]
		score, err := q2ScoreComment(likes, friends, ci)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		scores[ci] = score
	})
	return firstErr
}

// q2TopK ranks every comment by its dense score.
func q2TopK(g *graph, scores []int64) Result {
	t := NewTopK(TopK)
	for ci, score := range scores {
		t.Consider(Entry{ID: g.comments.IDOf(ci), Score: score, Timestamp: g.commentTS[ci]})
	}
	return t.Result()
}

// Q2Batch evaluates Q2 from scratch on every step.
type Q2Batch struct {
	g *graph
}

// NewQ2Batch returns the batch Q2 engine.
func NewQ2Batch() *Q2Batch { return &Q2Batch{} }

// Name implements Solution.
func (*Q2Batch) Name() string { return "GraphBLAS Batch" }

// Query implements Solution.
func (*Q2Batch) Query() string { return "Q2" }

// Load implements Solution.
func (s *Q2Batch) Load(snap *model.Snapshot) error {
	g, err := loadGraph(snap)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution.
func (s *Q2Batch) Initial() (Result, error) { return s.evaluate() }

// Update implements Solution: apply the change set, then fully recompute.
func (s *Q2Batch) Update(cs *model.ChangeSet) (Result, error) {
	if _, err := s.g.apply(cs); err != nil {
		return nil, err
	}
	return s.evaluate()
}

func (s *Q2Batch) evaluate() (Result, error) {
	// Batch semantics: assemble up front so the per-comment workers read
	// plain CSR rows.
	s.g.likes.Wait()
	s.g.friends.Wait()
	nc := s.g.comments.Len()
	all := make([]int, nc)
	for i := range all {
		all[i] = i
	}
	scores := make([]int64, nc)
	if err := q2ScoreAll(s.g.likes, s.g.friends, all, scores); err != nil {
		return nil, err
	}
	return q2TopK(s.g, scores), nil
}

// Q2Incremental evaluates Q2 fully once, then on each update recomputes
// only the comments the change set can affect (Fig. 4b, bottom):
//
//  1. new comments,
//  2. comments that received a new like,
//  3. comments where a new friendship connects two users who both like the
//     comment — detected per new friendship by intersecting the two users'
//     rows of Likes′ᵀ (the row-merge equivalent of the paper's
//     NewFriends-incidence-matrix product AC = Likes′ ⊕.⊗ NewFriends
//     followed by GxB_select(AC = 2); see affectedByFriendshipsIncidence
//     for the literal formulation, kept for the ablation benchmark).
//
// Affected comments are re-scored with the batch kernel into the
// maintained score vector and re-ranked in the engine's Ranking.
type Q2Incremental struct {
	g       *graph
	scores  []int64 // dense by comment index
	ranking Ranking
	prev    Result

	// useIncidence switches affected-comment detection to the literal
	// incidence-matrix formulation of the paper (assembles Likes′ᵀ).
	useIncidence bool
}

// NewQ2Incremental returns the incremental Q2 engine.
func NewQ2Incremental() *Q2Incremental { return &Q2Incremental{} }

// NewQ2IncrementalIncidence returns the incremental Q2 engine using the
// paper's literal incidence-matrix affected-set detection (ablation).
func NewQ2IncrementalIncidence() *Q2Incremental {
	return &Q2Incremental{useIncidence: true}
}

// Name implements Solution.
func (s *Q2Incremental) Name() string {
	if s.useIncidence {
		return "GraphBLAS Incremental (incidence)"
	}
	return "GraphBLAS Incremental"
}

// Query implements Solution.
func (*Q2Incremental) Query() string { return "Q2" }

// Load implements Solution.
func (s *Q2Incremental) Load(snap *model.Snapshot) error {
	g, err := loadGraph(snap)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution: full evaluation seeding the score state.
func (s *Q2Incremental) Initial() (Result, error) {
	s.g.likes.Wait()
	s.g.friends.Wait()
	nc := s.g.comments.Len()
	all := make([]int, nc)
	for i := range all {
		all[i] = i
	}
	s.scores = make([]int64, nc)
	if err := q2ScoreAll(s.g.likes, s.g.friends, all, s.scores); err != nil {
		return nil, err
	}
	for ci := range all {
		s.rank(ci)
	}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}

// Update implements Solution with incremental maintenance.
func (s *Q2Incremental) Update(cs *model.ChangeSet) (Result, error) {
	d, err := s.g.apply(cs)
	if err != nil {
		return nil, err
	}
	nc := s.g.comments.Len()
	for len(s.scores) < nc {
		s.scores = append(s.scores, 0)
	}

	// Step 5: collect the comments that might be affected.
	affected := make(map[int]struct{})
	for _, pc := range d.newComments {
		affected[pc[1]] = struct{}{}
	}
	for _, cu := range d.newLikes {
		affected[cu[0]] = struct{}{}
	}
	for _, cu := range d.removedLikes {
		affected[cu[0]] = struct{}{}
	}
	// Friendship changes (added or removed) affect the comments both
	// endpoints like; removed likes are covered above even when the same
	// change set also removed the friendship.
	friendPairs := append(append([][2]int{}, d.newFriends...), d.removedFriends...)
	var byFriends []int
	if s.useIncidence {
		byFriends, err = affectedByFriendshipsIncidence(s.g, friendPairs)
	} else {
		byFriends, err = affectedByFriendshipsRowMerge(s.g, friendPairs)
	}
	if err != nil {
		return nil, err
	}
	for _, ci := range byFriends {
		affected[ci] = struct{}{}
	}

	// Steps 6–9: re-score the affected comments with the batch kernel.
	idxs := make([]int, 0, len(affected))
	for ci := range affected {
		idxs = append(idxs, ci)
	}
	if err := q2ScoreAll(s.g.likes, s.g.friends, idxs, s.scores); err != nil {
		return nil, err
	}

	for _, ci := range idxs {
		s.rank(ci)
	}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}

// rank re-ranks comment ci from its maintained score.
func (s *Q2Incremental) rank(ci int) {
	s.ranking.Set(ci, Entry{ID: s.g.comments.IDOf(ci), Score: s.scores[ci], Timestamp: s.g.commentTS[ci]})
}

// affectedByFriendshipsRowMerge finds, for each new friendship (u1, u2),
// the comments liked by both users by intersecting the two users' rows of
// Likes′ᵀ. Only those two rows are read (pending tuples merge on the fly),
// so the cost is O(deg(u1) + deg(u2)) per friendship.
func affectedByFriendshipsRowMerge(g *graph, newFriends [][2]int) ([]int, error) {
	var out []int
	for _, uv := range newFriends {
		r1, err := grb.ExtractRow(g.likesT, uv[0])
		if err != nil {
			return nil, err
		}
		r2, err := grb.ExtractRow(g.likesT, uv[1])
		if err != nil {
			return nil, err
		}
		both, err := grb.EWiseMultV(grb.Pair[bool, bool], r1, r2)
		if err != nil {
			return nil, err
		}
		both.Iterate(func(ci grb.Index, _ int) bool {
			out = append(out, ci)
			return true
		})
	}
	return out, nil
}

// affectedByFriendshipsIncidence is the paper's literal formulation
// (Fig. 4b steps 1–4): build the NewFriends incidence matrix with one
// column per new friendship, compute AC = Likes′ ⊕.⊗ NewFriends — realized
// as ACᵀ = NewFriendsᵀ ⊕.⊗ Likes′ᵀ so Gustavson's algorithm merges two
// liker rows per friendship — keep the 2-valued cells (both endpoints like
// the comment), reduce with logical or, and extract the comment ids.
func affectedByFriendshipsIncidence(g *graph, newFriends [][2]int) ([]int, error) {
	if len(newFriends) == 0 {
		return nil, nil
	}
	nf := grb.NewMatrix[bool](len(newFriends), g.users.Len())
	for f, uv := range newFriends {
		if err := nf.SetElement(f, uv[0], true); err != nil {
			return nil, err
		}
		if err := nf.SetElement(f, uv[1], true); err != nil {
			return nil, err
		}
	}
	acT, err := grb.MxM(grb.PlusPair[bool, bool](), nf, g.likesT)
	if err != nil {
		return nil, err
	}
	both := grb.SelectM(func(_, _ grb.Index, v int) bool { return v == 2 }, acT)
	ac, err := grb.ReduceCols(grb.OrMonoid(), func(int) bool { return true }, both)
	if err != nil {
		return nil, err
	}
	ind, _ := ac.ExtractTuples()
	return ind, nil
}
