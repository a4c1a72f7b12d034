package core

import (
	"fmt"

	"repro/internal/grb"
	"repro/internal/model"
)

// graph is the linear-algebraic representation of the social network shared
// by the GraphBLAS engines: one boolean adjacency matrix per edge type, in
// both orientations where the incremental algorithms need the transpose for
// row-sparse access, plus dense id↔index maps and per-entity timestamps.
//
//	rootPost   |posts| × |comments|   (Q1 batch row-reduce)
//	rootPostT  |comments| × |posts|   (Q1 incremental sparse VxM)
//	likes      |comments| × |users|   (Q2 liker collection)
//	likesT     |users| × |comments|   (Q2 incremental friendship probing)
//	friends    |users| × |users|      (symmetric)
//
// Change sets grow the dimensions (|posts′|, |comments′|, |users′|) and add
// entries as pending tuples; whole-matrix kernels assemble lazily while
// row-sparse kernels never do, matching SuiteSparse semantics. The graph
// itself assembles a matrix only once its pending tuples reach a fixed
// fraction of its size (see settle), so assembly costs O(1) amortized per
// element and reading the sizes never does.
type graph struct {
	posts    *model.IDMap
	comments *model.IDMap
	users    *model.IDMap

	postTS    []int64
	commentTS []int64

	rootPost  *grb.Matrix[bool]
	rootPostT *grb.Matrix[bool]
	likes     *grb.Matrix[bool]
	likesT    *grb.Matrix[bool]
	friends   *grb.Matrix[bool]
}

// delta reports what one change set added, in dense-index terms at the
// post-update dimensions. It is the input of the incremental algorithms.
type delta struct {
	newPosts    []int    // post indices
	newComments [][2]int // (root post, comment) index pairs
	newLikes    [][2]int // (comment, user) index pairs
	newFriends  [][2]int // (user, user) index pairs

	// Removals (the paper's future-work workload).
	removedLikes   [][2]int // (comment, user) index pairs
	removedFriends [][2]int // (user, user) index pairs
}

// hasRemovals reports whether the delta contains deletions, which force the
// incremental engines to re-rank from the full score state (scores are no
// longer monotone, so the previous-top-3 merge shortcut is unsound).
func (d *delta) hasRemovals() bool {
	return len(d.removedLikes) > 0 || len(d.removedFriends) > 0
}

// loadGraph builds the matrices from an initial snapshot.
func loadGraph(s *model.Snapshot) (*graph, error) {
	g := &graph{
		posts:    model.NewIDMap(),
		comments: model.NewIDMap(),
		users:    model.NewIDMap(),
	}
	for _, p := range s.Posts {
		g.posts.Add(p.ID)
		g.postTS = append(g.postTS, p.Timestamp)
	}
	for _, c := range s.Comments {
		g.comments.Add(c.ID)
		g.commentTS = append(g.commentTS, c.Timestamp)
	}
	for _, u := range s.Users {
		g.users.Add(u.ID)
	}
	np, nc, nu := g.posts.Len(), g.comments.Len(), g.users.Len()

	rpRows := make([]grb.Index, 0, len(s.Comments))
	rpCols := make([]grb.Index, 0, len(s.Comments))
	for _, c := range s.Comments {
		pi, ok := g.posts.Index(c.PostID)
		if !ok {
			return nil, fmt.Errorf("core: comment %d roots at unknown post %d", c.ID, c.PostID)
		}
		rpRows = append(rpRows, pi)
		rpCols = append(rpCols, g.comments.MustIndex(c.ID))
	}
	trues := func(n int) []bool {
		b := make([]bool, n)
		for i := range b {
			b[i] = true
		}
		return b
	}
	var err error
	if g.rootPost, err = grb.MatrixFromTuples(np, nc, rpRows, rpCols, trues(len(rpRows)), nil); err != nil {
		return nil, err
	}
	if g.rootPostT, err = grb.MatrixFromTuples(nc, np, rpCols, rpRows, trues(len(rpRows)), nil); err != nil {
		return nil, err
	}

	lkRows := make([]grb.Index, 0, len(s.Likes))
	lkCols := make([]grb.Index, 0, len(s.Likes))
	for _, l := range s.Likes {
		ci, ok := g.comments.Index(l.CommentID)
		if !ok {
			return nil, fmt.Errorf("core: like references unknown comment %d", l.CommentID)
		}
		ui, ok := g.users.Index(l.UserID)
		if !ok {
			return nil, fmt.Errorf("core: like references unknown user %d", l.UserID)
		}
		lkRows = append(lkRows, ci)
		lkCols = append(lkCols, ui)
	}
	if g.likes, err = grb.MatrixFromTuples(nc, nu, lkRows, lkCols, trues(len(lkRows)), nil); err != nil {
		return nil, err
	}
	if g.likesT, err = grb.MatrixFromTuples(nu, nc, lkCols, lkRows, trues(len(lkRows)), nil); err != nil {
		return nil, err
	}

	frRows := make([]grb.Index, 0, 2*len(s.Friendships))
	frCols := make([]grb.Index, 0, 2*len(s.Friendships))
	for _, f := range s.Friendships {
		a, ok := g.users.Index(f.User1)
		if !ok {
			return nil, fmt.Errorf("core: friendship references unknown user %d", f.User1)
		}
		b, ok := g.users.Index(f.User2)
		if !ok {
			return nil, fmt.Errorf("core: friendship references unknown user %d", f.User2)
		}
		frRows = append(frRows, a, b)
		frCols = append(frCols, b, a)
	}
	if g.friends, err = grb.MatrixFromTuples(nu, nu, frRows, frCols, trues(len(frRows)), nil); err != nil {
		return nil, err
	}
	return g, nil
}

// apply ingests one change set: new entities extend the id maps and matrix
// dimensions, new edges land as pending tuples in both orientations. It
// returns the delta in dense indices.
func (g *graph) apply(cs *model.ChangeSet) (*delta, error) {
	d := &delta{}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddPost:
			idx := g.posts.Add(ch.Post.ID)
			if idx == len(g.postTS) {
				g.postTS = append(g.postTS, ch.Post.Timestamp)
			}
			d.newPosts = append(d.newPosts, idx)
		case model.KindAddUser:
			g.users.Add(ch.User.ID)
		case model.KindAddComment:
			idx := g.comments.Add(ch.Comment.ID)
			if idx == len(g.commentTS) {
				g.commentTS = append(g.commentTS, ch.Comment.Timestamp)
			}
		case model.KindAddFriendship, model.KindAddLike,
			model.KindRemoveFriendship, model.KindRemoveLike:
			// Edges are resolved in a second pass, after all nodes of the
			// change set exist.
		default:
			return nil, fmt.Errorf("core: unknown change kind %d", ch.Kind)
		}
	}
	np, nc, nu := g.posts.Len(), g.comments.Len(), g.users.Len()
	if err := g.rootPost.Resize(np, nc); err != nil {
		return nil, err
	}
	if err := g.rootPostT.Resize(nc, np); err != nil {
		return nil, err
	}
	if err := g.likes.Resize(nc, nu); err != nil {
		return nil, err
	}
	if err := g.likesT.Resize(nu, nc); err != nil {
		return nil, err
	}
	if err := g.friends.Resize(nu, nu); err != nil {
		return nil, err
	}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case model.KindAddComment:
			pi, ok := g.posts.Index(ch.Comment.PostID)
			if !ok {
				return nil, fmt.Errorf("core: comment %d roots at unknown post %d", ch.Comment.ID, ch.Comment.PostID)
			}
			ci := g.comments.MustIndex(ch.Comment.ID)
			if err := g.rootPost.SetElement(pi, ci, true); err != nil {
				return nil, err
			}
			if err := g.rootPostT.SetElement(ci, pi, true); err != nil {
				return nil, err
			}
			d.newComments = append(d.newComments, [2]int{pi, ci})
		case model.KindAddLike:
			ci, ok := g.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := g.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: like references unknown user %d", ch.Like.UserID)
			}
			if err := g.likes.SetElement(ci, ui, true); err != nil {
				return nil, err
			}
			if err := g.likesT.SetElement(ui, ci, true); err != nil {
				return nil, err
			}
			d.newLikes = append(d.newLikes, [2]int{ci, ui})
		case model.KindAddFriendship:
			a, ok := g.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User1)
			}
			b, ok := g.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: friendship references unknown user %d", ch.Friendship.User2)
			}
			if err := g.friends.SetElement(a, b, true); err != nil {
				return nil, err
			}
			if err := g.friends.SetElement(b, a, true); err != nil {
				return nil, err
			}
			d.newFriends = append(d.newFriends, [2]int{a, b})
		case model.KindRemoveLike:
			ci, ok := g.comments.Index(ch.Like.CommentID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown comment %d", ch.Like.CommentID)
			}
			ui, ok := g.users.Index(ch.Like.UserID)
			if !ok {
				return nil, fmt.Errorf("core: unlike references unknown user %d", ch.Like.UserID)
			}
			if err := g.likes.RemoveElement(ci, ui); err != nil {
				return nil, err
			}
			if err := g.likesT.RemoveElement(ui, ci); err != nil {
				return nil, err
			}
			d.removedLikes = append(d.removedLikes, [2]int{ci, ui})
		case model.KindRemoveFriendship:
			a, ok := g.users.Index(ch.Friendship.User1)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User1)
			}
			b, ok := g.users.Index(ch.Friendship.User2)
			if !ok {
				return nil, fmt.Errorf("core: unfriend references unknown user %d", ch.Friendship.User2)
			}
			if err := g.friends.RemoveElement(a, b); err != nil {
				return nil, err
			}
			if err := g.friends.RemoveElement(b, a); err != nil {
				return nil, err
			}
			d.removedFriends = append(d.removedFriends, [2]int{a, b})
		}
	}
	g.settle()
	return d, nil
}

// pendingDivisor sets when settle assembles a matrix: once its pending
// tuples reach 1/pendingDivisor of NRows()+NVals(). Assembly costs
// O(NRows()+NVals()), so each buffered tuple pays O(pendingDivisor)
// amortized, and the pending run a row-sparse read merges stays short.
// A pending tuple takes several times the memory of an assembled entry;
// on the servebench ingest workload 1/256 used the same CPU as 1/32 and
// about 1 MB less peak RSS.
const pendingDivisor = 256

// settle assembles every matrix whose pending tuples have reached the
// pendingDivisor limit. Called at the end of apply, it keeps
// whole-graph assembly off the per-update path except when it is due.
func (g *graph) settle() {
	for _, m := range g.matrices() {
		if m.NPending()*pendingDivisor >= m.NRows()+m.NVals() {
			m.Wait()
		}
	}
}

func (g *graph) matrices() [5]*grb.Matrix[bool] {
	return [5]*grb.Matrix[bool]{g.rootPost, g.rootPostT, g.likes, g.likesT, g.friends}
}
