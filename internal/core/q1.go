package core

import (
	"repro/internal/grb"
	"repro/internal/model"
)

// q1Scores is Alg. 1 of the paper: the batch Q1 scoring kernel.
//
//	sum           ← [⊕_j RootPost(:,j)]        row-wise comment count
//	repliesScores ← 10 × sum                   GrB_apply
//	likesScore    ← RootPost ⊕.⊗ likesCount    plus_second mxv
//	scores        ← repliesScores ⊕ likesScore eWiseAdd
func q1Scores(rootPost *grb.Matrix[bool], likesCount *grb.Vector[int64]) (*grb.Vector[int64], error) {
	sum, err := grb.ReduceRows(grb.PlusMonoid[int64](), grb.One[bool, int64], rootPost)
	if err != nil {
		return nil, err
	}
	repliesScores := grb.ApplyV(func(x int64) int64 { return 10 * x }, sum)
	likesScore, err := grb.MxV(grb.PlusSecond[bool, int64](), rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	return grb.EWiseAddV(grb.Plus[int64], repliesScores, likesScore)
}

// likesPerComment computes likesCount ∈ N^|comments|, the row-wise like
// count of the Likes matrix.
func likesPerComment(likes *grb.Matrix[bool]) (*grb.Vector[int64], error) {
	return grb.ReduceRows(grb.PlusMonoid[int64](), grb.One[bool, int64], likes)
}

// q1TopK ranks every post by its score (absent entries score 0).
func q1TopK(g *graph, scores *grb.Vector[int64]) Result {
	t := NewTopK(TopK)
	dense := make([]int64, g.posts.Len())
	scores.Iterate(func(i grb.Index, x int64) bool {
		dense[i] = x
		return true
	})
	for i := 0; i < g.posts.Len(); i++ {
		t.Consider(Entry{ID: g.posts.IDOf(i), Score: dense[i], Timestamp: g.postTS[i]})
	}
	return t.Result()
}

// Q1Batch evaluates Q1 from scratch on every step.
type Q1Batch struct {
	g *graph
}

// NewQ1Batch returns the batch Q1 engine ("GraphBLAS Batch" in the paper).
func NewQ1Batch() *Q1Batch { return &Q1Batch{} }

// Name implements Solution.
func (*Q1Batch) Name() string { return "GraphBLAS Batch" }

// Query implements Solution.
func (*Q1Batch) Query() string { return "Q1" }

// Load implements Solution.
func (s *Q1Batch) Load(snap *model.Snapshot) error {
	g, err := loadGraph(snap)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution.
func (s *Q1Batch) Initial() (Result, error) { return s.evaluate() }

// Update implements Solution: apply the change set, then fully recompute.
func (s *Q1Batch) Update(cs *model.ChangeSet) (Result, error) {
	if _, err := s.g.apply(cs); err != nil {
		return nil, err
	}
	return s.evaluate()
}

func (s *Q1Batch) evaluate() (Result, error) {
	likesCount, err := likesPerComment(s.g.likes)
	if err != nil {
		return nil, err
	}
	scores, err := q1Scores(s.g.rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	return q1TopK(s.g, scores), nil
}

// Q1Incremental evaluates Q1 once, then maintains the score vector with
// Alg. 2 of the paper:
//
//	sum            ← [⊕_j ΔRootPost(:,j)]          # of new comments
//	repliesScores⁺ ← 10 × sum
//	likesScore⁺    ← RootPost′ ⊕.⊗ likesCount⁺     (computed as the sparse
//	                 likesCount⁺ᵀ ⊕.⊗ RootPost′ᵀ so only changed comments'
//	                 rows are touched)
//	scores⁺        ← repliesScores⁺ ⊕ likesScore⁺
//	scores         ⊕= scores⁺                     (in place)
//
// Every step costs and allocates by the change: ΔRootPost is hypersparse,
// the reduction and VxM accumulate sparsely, and scores is a full vector
// accumulated in place (GrB_assign with an accumulator). After Initial
// the engine keeps only RootPostᵀ, the one matrix Alg. 2 reads. Each post
// whose score changed, and each new post, is re-ranked in the engine's
// Ranking, so removals (scores that drop) cost the same as inserts.
type Q1Incremental struct {
	g       *graph
	scores  *grb.Vector[int64] // full: every post stores its score
	ranking Ranking
	prev    Result
}

// NewQ1Incremental returns the incremental Q1 engine ("GraphBLAS
// Incremental" in the paper).
func NewQ1Incremental() *Q1Incremental { return &Q1Incremental{} }

// Name implements Solution.
func (*Q1Incremental) Name() string { return "GraphBLAS Incremental" }

// Query implements Solution.
func (*Q1Incremental) Query() string { return "Q1" }

// Load implements Solution.
func (s *Q1Incremental) Load(snap *model.Snapshot) error {
	g, err := loadGraph(snap)
	if err != nil {
		return err
	}
	s.g = g
	return nil
}

// Initial implements Solution: the first evaluation is a full one (Alg. 1);
// it seeds the maintained score vector and the ranking, then drops the
// matrices only Alg. 1 reads.
func (s *Q1Incremental) Initial() (Result, error) {
	likesCount, err := likesPerComment(s.g.likes)
	if err != nil {
		return nil, err
	}
	scores, err := q1Scores(s.g.rootPost, likesCount)
	if err != nil {
		return nil, err
	}
	dense := make([]int64, s.g.posts.Len())
	scores.Iterate(func(i grb.Index, x int64) bool {
		dense[i] = x
		return true
	})
	s.scores = grb.VectorFromSlice(dense)
	for i := range dense {
		s.rank(i)
	}
	g := s.g
	g.rootPost, g.likes, g.likesT, g.friends = nil, nil, nil, nil
	g.kept = []*grb.Matrix[bool]{g.rootPostT}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}

// rank re-ranks post i from its maintained score.
func (s *Q1Incremental) rank(i grb.Index) {
	score, _, _ := s.scores.GetElement(i)
	s.ranking.Set(i, Entry{ID: s.g.posts.IDOf(i), Score: score, Timestamp: s.g.postTS[i]})
}

// Update implements Solution with the incremental maintenance of Alg. 2.
func (s *Q1Incremental) Update(cs *model.ChangeSet) (Result, error) {
	d, err := s.g.apply(cs)
	if err != nil {
		return nil, err
	}
	np := s.g.posts.Len()
	nc := s.g.comments.Len()
	// New posts enter the full score vector at 0.
	if old := s.scores.Size(); np > old {
		if err := s.scores.Resize(np); err != nil {
			return nil, err
		}
		if err := grb.AssignVScalar(s.scores, grb.Range(old, np), 0, nil); err != nil {
			return nil, err
		}
	}

	// repliesScores⁺ = 10 × [⊕_j ΔRootPost(:,j)]: ΔRootPost has one entry
	// per new comment at (root post, comment).
	deltaRows := make([]grb.Index, 0, len(d.newComments))
	deltaCols := make([]grb.Index, 0, len(d.newComments))
	deltaVals := make([]bool, 0, len(d.newComments))
	for _, pc := range d.newComments {
		deltaRows = append(deltaRows, pc[0])
		deltaCols = append(deltaCols, pc[1])
		deltaVals = append(deltaVals, true)
	}
	deltaRP, err := grb.HyperFromTuples(np, nc, deltaRows, deltaCols, deltaVals, nil)
	if err != nil {
		return nil, err
	}
	sum, err := grb.ReduceRows(grb.PlusMonoid[int64](), grb.One[bool, int64], deltaRP)
	if err != nil {
		return nil, err
	}
	repliesPlus := grb.ApplyV(func(x int64) int64 { return 10 * x }, sum)

	// likesScore⁺ = RootPost′ ⊕.⊗ likesCount⁺, evaluated in transposed
	// orientation (likesCount⁺ᵀ ⊕.⊗ RootPost′ᵀ) so that only the rows of
	// the comments that actually received likes are read — O(Δ) work,
	// untouched pending tuples stay pending.
	lcInd := make([]grb.Index, 0, len(d.newLikes)+len(d.removedLikes))
	lcVal := make([]int64, 0, cap(lcInd))
	for _, cu := range d.newLikes {
		lcInd = append(lcInd, cu[0])
		lcVal = append(lcVal, 1)
	}
	// Removals (future-work workload) enter the same delta pipeline as
	// negative like counts.
	for _, cu := range d.removedLikes {
		lcInd = append(lcInd, cu[0])
		lcVal = append(lcVal, -1)
	}
	likesCountPlus, err := grb.VectorFromTuples(nc, lcInd, lcVal, grb.Plus[int64])
	if err != nil {
		return nil, err
	}
	likesPlus, err := grb.VxM(grb.PlusFirst[int64, bool](), likesCountPlus, s.g.rootPostT)
	if err != nil {
		return nil, err
	}

	scoresPlus, err := grb.EWiseAddV(grb.Plus[int64], repliesPlus, likesPlus)
	if err != nil {
		return nil, err
	}
	if err := grb.AccumV(s.scores, scoresPlus, grb.Plus[int64]); err != nil {
		return nil, err
	}

	// Re-rank the posts whose score changed (the structure of scores⁺)
	// and the new ones.
	scoresPlus.Iterate(func(i grb.Index, _ int64) bool {
		s.rank(i)
		return true
	})
	for _, pi := range d.newPosts {
		s.rank(pi)
	}
	s.prev = s.ranking.Top(TopK)
	return s.prev, nil
}
