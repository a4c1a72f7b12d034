package core

// This file is the introspection surface the serving layer builds on: a
// zero-cost accessor for the last committed answer of the incremental
// engines, and size statistics of the maintained engine state.

// ResultSnapshotter is implemented by engines that retain their last
// committed answer. LastResult returns a copy of that answer without
// recomputation — the accessor a serving layer uses to publish a
// snapshot-isolated result after each committed update, and ok=false
// before Initial has run.
type ResultSnapshotter interface {
	LastResult() (Result, bool)
}

// LastResult implements ResultSnapshotter.
func (s *Q1Incremental) LastResult() (Result, bool) { return lastResult(s.prev) }

// LastResult implements ResultSnapshotter.
func (s *Q2Incremental) LastResult() (Result, bool) { return lastResult(s.prev) }

// LastResult implements ResultSnapshotter.
func (s *Q2IncrementalCC) LastResult() (Result, bool) { return lastResult(s.prev) }

// lastResult copies a retained answer; a nil prev means Initial has not run
// (Ranker.Result always returns a non-nil slice, even when empty).
func lastResult(prev Result) (Result, bool) {
	if prev == nil {
		return nil, false
	}
	out := make(Result, len(prev))
	copy(out, prev)
	return out, true
}

// EngineStats sizes the state an engine maintains between updates.
type EngineStats struct {
	Posts    int `json:"posts"`
	Comments int `json:"comments"`
	Users    int `json:"users"`
	// NNZ is the total number of stored entries across the maintained
	// matrices (both orientations where kept), the figure the paper tracks
	// as graph size.
	NNZ int `json:"nnz"`
	// Pending counts entries not yet assembled into the CSR structure
	// (SuiteSparse-style pending tuples).
	Pending int `json:"pending"`
}

// StatsReporter is implemented by engines that can report their state size.
type StatsReporter interface {
	Stats() EngineStats
}

// engineStats sizes the matrix state shared by the GraphBLAS engines in
// O(1): NVals counts pending tuples without assembling them, so reading the
// stats after every commit leaves the engine state untouched.
func (g *graph) engineStats() EngineStats {
	if g == nil {
		return EngineStats{}
	}
	st := EngineStats{
		Posts:    g.posts.Len(),
		Comments: g.comments.Len(),
		Users:    g.users.Len(),
	}
	for _, m := range g.matrices() {
		st.NNZ += m.NVals()
		st.Pending += m.NPending()
	}
	return st
}

// Stats implements StatsReporter.
func (s *Q1Batch) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q1Incremental) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q2Batch) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter.
func (s *Q2Incremental) Stats() EngineStats { return s.g.engineStats() }

// Stats implements StatsReporter. The CC engine maintains adjacency lists
// and per-comment DSU forests instead of matrices; NNZ counts the directed
// friend edges and the user→comment like edges it stores, from counters the
// event handlers maintain, so Stats is O(1). Retired entities are excluded,
// matching a reloaded donor's live counts.
func (s *Q2IncrementalCC) Stats() EngineStats {
	st := EngineStats{}
	if s.posts != nil {
		st.Posts = s.posts.Len()
	}
	if s.comments != nil {
		st.Comments = s.comments.Len() - len(s.retiredComments)
	}
	if s.users != nil {
		st.Users = s.users.Len() - len(s.retiredUsers)
	}
	st.NNZ = s.nFriends + s.nLikes
	return st
}
