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
// Edge maps are keyed by the (A, B) of the edge's canonical ChangeKey, so
// the two orientations of a friendship are one key.
type Checker struct {
	posts map[ID]struct{}
	// comments maps each comment to its root post, which is all a reply's
	// root-consistency check needs.
	comments map[ID]ID
	users    map[ID]struct{}
	friends  map[[2]ID]struct{}
	likes    map[[2]ID]struct{}
}

// NewChecker loads a snapshot into a new Checker, validating it on the
// way: posts, users, comments (parents before replies), friendships, then
// likes, each under the same rules ApplyAll enforces.
func NewChecker(s *Snapshot) (*Checker, error) {
	c := &Checker{
		posts:    make(map[ID]struct{}, len(s.Posts)),
		comments: make(map[ID]ID, len(s.Comments)),
		users:    make(map[ID]struct{}, len(s.Users)),
		friends:  make(map[[2]ID]struct{}, len(s.Friendships)),
		likes:    make(map[[2]ID]struct{}, len(s.Likes)),
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

// ApplyAll validates changes in order and applies them to the checker. It
// is all-or-nothing: on the first invalid change every earlier change of
// the call is rolled back and the error returned, so a rejected request
// leaves no trace.
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

// edge is the edge-map key of a friendship or like change.
func edge(ch *Change) [2]ID {
	k := ch.Key()
	return [2]ID{k.A, k.B}
}

func (c *Checker) apply(ch *Change) error {
	switch ch.Kind {
	case KindAddPost:
		if _, dup := c.posts[ch.Post.ID]; dup {
			return fmt.Errorf("%w: post %d already exists", ErrIntegrity, ch.Post.ID)
		}
		c.posts[ch.Post.ID] = struct{}{}
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
	case KindAddUser:
		if _, dup := c.users[ch.User.ID]; dup {
			return fmt.Errorf("%w: user %d already exists", ErrIntegrity, ch.User.ID)
		}
		c.users[ch.User.ID] = struct{}{}
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
		c.friends[k] = struct{}{}
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
		c.likes[k] = struct{}{}
	case KindRemoveFriendship:
		k := edge(ch)
		if _, ok := c.friends[k]; !ok {
			return fmt.Errorf("%w: friendship %d–%d does not exist", ErrIntegrity, ch.Friendship.User1, ch.Friendship.User2)
		}
		delete(c.friends, k)
	case KindRemoveLike:
		k := edge(ch)
		if _, ok := c.likes[k]; !ok {
			return fmt.Errorf("%w: user %d does not like comment %d", ErrIntegrity, ch.Like.UserID, ch.Like.CommentID)
		}
		delete(c.likes, k)
	default:
		return fmt.Errorf("%w: unknown change kind %d", ErrIntegrity, ch.Kind)
	}
	return nil
}

// rollback undoes a previously successful apply of ch.
func (c *Checker) rollback(ch *Change) {
	switch ch.Kind {
	case KindAddPost:
		delete(c.posts, ch.Post.ID)
	case KindAddComment:
		delete(c.comments, ch.Comment.ID)
	case KindAddUser:
		delete(c.users, ch.User.ID)
	case KindAddFriendship:
		delete(c.friends, edge(ch))
	case KindAddLike:
		delete(c.likes, edge(ch))
	case KindRemoveFriendship:
		c.friends[edge(ch)] = struct{}{}
	case KindRemoveLike:
		c.likes[edge(ch)] = struct{}{}
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
