package model

import (
	"errors"
	"fmt"
)

// ErrIntegrity is wrapped by all referential-integrity violations.
var ErrIntegrity = errors.New("model: integrity violation")

// Checker is the incremental form of the referential-integrity rules: it
// tracks which entities and edges exist and admits a change only if it
// keeps the model valid — unique ids per kind, comments replying to an
// existing submission with a root pointer consistent with the parent
// chain, likes and friendships between existing users and comments, no
// self-friendships, no duplicate edges, and removals only of existing
// edges. A serving layer checks every update request against it before any
// engine sees the request, and Validate runs a whole dataset through it.
//
// The checker also materializes the model it admits (State): every
// accepted change is applied to a snapshot it owns in the same pass that
// validates it. Edge maps are keyed by the (A, B) of the edge's canonical
// ChangeKey, so the two orientations of a friendship are one key, and map
// each edge to its position in the state's edge slice. A removal therefore
// costs O(1): the last edge moves into the freed slot.
type Checker struct {
	posts map[ID]struct{}
	// comments maps each comment to its root post, which is all a reply's
	// root-consistency check needs.
	comments map[ID]ID
	users    map[ID]struct{}
	friends  map[[2]ID]int32
	likes    map[[2]ID]int32
	state    *Snapshot
}

// NewChecker loads a snapshot into a new Checker, validating it on the
// way: posts, users, comments (parents before replies), friendships, then
// likes, each under the same rules ApplyAll enforces. The checker's state
// starts as a copy of s; s itself is not modified.
func NewChecker(s *Snapshot) (*Checker, error) {
	c := &Checker{
		posts:    make(map[ID]struct{}, len(s.Posts)),
		comments: make(map[ID]ID, len(s.Comments)),
		users:    make(map[ID]struct{}, len(s.Users)),
		friends:  make(map[[2]ID]int32, len(s.Friendships)),
		likes:    make(map[[2]ID]int32, len(s.Likes)),
		state: &Snapshot{
			Posts:       make([]Post, 0, len(s.Posts)),
			Comments:    make([]Comment, 0, len(s.Comments)),
			Users:       make([]User, 0, len(s.Users)),
			Friendships: make([]Friendship, 0, len(s.Friendships)),
			Likes:       make([]Like, 0, len(s.Likes)),
		},
	}
	load := func(ch *Change) error {
		if err := c.apply(ch); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		return nil
	}
	ch := Change{Kind: KindAddPost}
	for _, ch.Post = range s.Posts {
		if err := load(&ch); err != nil {
			return nil, err
		}
	}
	ch.Kind = KindAddUser
	for _, ch.User = range s.Users {
		if err := load(&ch); err != nil {
			return nil, err
		}
	}
	ch.Kind = KindAddComment
	for _, ch.Comment = range s.Comments {
		if err := load(&ch); err != nil {
			return nil, err
		}
	}
	ch.Kind = KindAddFriendship
	for _, ch.Friendship = range s.Friendships {
		if err := load(&ch); err != nil {
			return nil, err
		}
	}
	ch.Kind = KindAddLike
	for _, ch.Like = range s.Likes {
		if err := load(&ch); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Validate checks the referential integrity of a dataset: the snapshot as
// NewChecker loads it, then every change set in replay order against the
// growing model.
func Validate(d *Dataset) error {
	c, err := NewChecker(d.Snapshot)
	if err != nil {
		return err
	}
	for i := range d.ChangeSets {
		if err := c.ApplyAll(d.ChangeSets[i].Changes); err != nil {
			return fmt.Errorf("change set %d: %w", i, err)
		}
	}
	return nil
}

// ApplyAll validates changes in order and applies them to the checker and
// its state. It is all-or-nothing: on the first invalid change every
// earlier change of the call is rolled back and the error returned, so a
// rejected request leaves no trace in the maps or in the state's content
// (its edge order may differ). changes itself is never modified.
func (c *Checker) ApplyAll(changes []Change) error {
	for i := range changes {
		if err := c.apply(&changes[i]); err != nil {
			for j := i - 1; j >= 0; j-- {
				c.rollback(&changes[j])
			}
			return fmt.Errorf("change %d (%s): %w", i, changes[i].Kind, err)
		}
	}
	return nil
}

// State returns the model the checker has admitted: the snapshot it was
// built from plus every accepted change, the result Snapshot.Apply gives
// for the same changes up to edge order and friendship orientation. The
// checker owns it and updates it in place on every ApplyAll. Friendships
// are stored canonically (User1 < User2); edge order is unspecified, since
// a removal moves the last edge into the freed slot. A caller may replace
// an edge slice with an equal copy (positions stay valid) but must not
// otherwise modify the state.
func (c *Checker) State() *Snapshot { return c.state }

// edge is the edge-map key of a friendship or like change.
func edge(ch *Change) [2]ID {
	k := ch.Key()
	return [2]ID{k.A, k.B}
}

// friendKey and likeKey are the edge-map keys of stored edges (stored
// friendships are canonical, so no reordering is needed).
func friendKey(f Friendship) [2]ID { return [2]ID{f.User1, f.User2} }
func likeKey(l Like) [2]ID         { return [2]ID{l.UserID, l.CommentID} }

// appendEdge adds edge e under key k at the end of *edges.
func appendEdge[E any](pos map[[2]ID]int32, edges *[]E, k [2]ID, e E) {
	pos[k] = int32(len(*edges))
	*edges = append(*edges, e)
}

// removeEdge deletes the edge under key k from *edges by moving the last
// edge into its slot.
func removeEdge[E any](pos map[[2]ID]int32, edges *[]E, k [2]ID, key func(E) [2]ID) {
	i, last := pos[k], len(*edges)-1
	if int(i) != last {
		moved := (*edges)[last]
		(*edges)[i] = moved
		pos[key(moved)] = i
	}
	*edges = (*edges)[:last]
	delete(pos, k)
}

func (c *Checker) apply(ch *Change) error {
	switch ch.Kind {
	case KindAddPost:
		if _, dup := c.posts[ch.Post.ID]; dup {
			return fmt.Errorf("%w: post %d already exists", ErrIntegrity, ch.Post.ID)
		}
		c.posts[ch.Post.ID] = struct{}{}
		c.state.Posts = append(c.state.Posts, ch.Post)
	case KindAddComment:
		cm := ch.Comment
		if _, dup := c.comments[cm.ID]; dup {
			return fmt.Errorf("%w: comment %d already exists", ErrIntegrity, cm.ID)
		}
		if _, ok := c.posts[cm.PostID]; !ok {
			return fmt.Errorf("%w: comment %d roots at unknown post %d", ErrIntegrity, cm.ID, cm.PostID)
		}
		// A direct reply to its root post is consistent by the check above.
		if cm.ParentID != cm.PostID {
			if err := c.checkParent(cm); err != nil {
				return err
			}
		}
		c.comments[cm.ID] = cm.PostID
		c.state.Comments = append(c.state.Comments, cm)
	case KindAddUser:
		if _, dup := c.users[ch.User.ID]; dup {
			return fmt.Errorf("%w: user %d already exists", ErrIntegrity, ch.User.ID)
		}
		c.users[ch.User.ID] = struct{}{}
		c.state.Users = append(c.state.Users, ch.User)
	case KindAddFriendship:
		f := ch.Friendship
		if f.User1 == f.User2 {
			return fmt.Errorf("%w: self-friendship of user %d", ErrIntegrity, f.User1)
		}
		if err := c.checkUser(f.User1); err != nil {
			return err
		}
		if err := c.checkUser(f.User2); err != nil {
			return err
		}
		k := edge(ch)
		if _, dup := c.friends[k]; dup {
			return fmt.Errorf("%w: friendship %d–%d already exists", ErrIntegrity, f.User1, f.User2)
		}
		appendEdge(c.friends, &c.state.Friendships, k, Friendship{User1: k[0], User2: k[1]})
	case KindAddLike:
		l := ch.Like
		if err := c.checkUser(l.UserID); err != nil {
			return err
		}
		if _, ok := c.comments[l.CommentID]; !ok {
			return fmt.Errorf("%w: unknown comment %d", ErrIntegrity, l.CommentID)
		}
		k := edge(ch)
		if _, dup := c.likes[k]; dup {
			return fmt.Errorf("%w: user %d already likes comment %d", ErrIntegrity, l.UserID, l.CommentID)
		}
		appendEdge(c.likes, &c.state.Likes, k, l)
	case KindRemoveFriendship:
		k := edge(ch)
		if _, ok := c.friends[k]; !ok {
			return fmt.Errorf("%w: friendship %d–%d does not exist", ErrIntegrity, ch.Friendship.User1, ch.Friendship.User2)
		}
		removeEdge(c.friends, &c.state.Friendships, k, friendKey)
	case KindRemoveLike:
		k := edge(ch)
		if _, ok := c.likes[k]; !ok {
			return fmt.Errorf("%w: user %d does not like comment %d", ErrIntegrity, ch.Like.UserID, ch.Like.CommentID)
		}
		removeEdge(c.likes, &c.state.Likes, k, likeKey)
	default:
		return fmt.Errorf("%w: unknown change kind %d", ErrIntegrity, ch.Kind)
	}
	return nil
}

// rollback undoes a previously successful apply of ch. ApplyAll rolls back
// in reverse order, so an added node is always the last of its slice; an
// added edge may have moved (a later removal's rollback appends the
// removed edge at the end), so it is removed by key.
func (c *Checker) rollback(ch *Change) {
	st := c.state
	switch ch.Kind {
	case KindAddPost:
		delete(c.posts, ch.Post.ID)
		st.Posts = st.Posts[:len(st.Posts)-1]
	case KindAddComment:
		delete(c.comments, ch.Comment.ID)
		st.Comments = st.Comments[:len(st.Comments)-1]
	case KindAddUser:
		delete(c.users, ch.User.ID)
		st.Users = st.Users[:len(st.Users)-1]
	case KindAddFriendship:
		removeEdge(c.friends, &st.Friendships, edge(ch), friendKey)
	case KindAddLike:
		removeEdge(c.likes, &st.Likes, edge(ch), likeKey)
	case KindRemoveFriendship:
		k := edge(ch)
		appendEdge(c.friends, &st.Friendships, k, Friendship{User1: k[0], User2: k[1]})
	case KindRemoveLike:
		appendEdge(c.likes, &st.Likes, edge(ch), ch.Like)
	}
}

// checkParent checks a comment whose parent is not its root post: the
// parent must be a comment under the same root.
func (c *Checker) checkParent(cm Comment) error {
	if _, isPost := c.posts[cm.ParentID]; isPost {
		return fmt.Errorf("%w: comment %d replies to post %d but roots at %d",
			ErrIntegrity, cm.ID, cm.ParentID, cm.PostID)
	}
	root, ok := c.comments[cm.ParentID]
	if !ok {
		return fmt.Errorf("%w: comment %d replies to unknown submission %d", ErrIntegrity, cm.ID, cm.ParentID)
	}
	if root != cm.PostID {
		return fmt.Errorf("%w: comment %d root post %d differs from parent's root %d",
			ErrIntegrity, cm.ID, cm.PostID, root)
	}
	return nil
}

func (c *Checker) checkUser(id ID) error {
	if _, ok := c.users[id]; !ok {
		return fmt.Errorf("%w: unknown user %d", ErrIntegrity, id)
	}
	return nil
}
