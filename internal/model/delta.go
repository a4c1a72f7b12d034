package model

// This file is the change-key delta layer: every Change has a canonical
// ChangeKey identifying the model element it touches, and a ChangeSet can be
// normalized under those keys. It is the same change-propagation idea the
// paper applies inside the GraphBLAS engines, lifted to the model so the
// layers above (validation, Apply, shard router) can reason about update
// streams as keyed deltas instead of opaque change lists: both spellings of
// an undirected friendship are one key, and a self-contained subgraph can
// be expressed as a Retraction and subtracted from an engine instead of
// rebuilding it.

// KeyKind identifies the model element family a ChangeKey addresses. Unlike
// ChangeKind it is operation-free: KindAddLike and KindRemoveLike changes on
// the same edge share one key, which is how validation and Apply find an
// edge's earlier operations.
type KeyKind uint8

// The key kinds, one per entity or edge family.
const (
	KeyPost KeyKind = iota
	KeyComment
	KeyUser
	KeyFriendship
	KeyLike
)

// ChangeKey canonically identifies the model element a Change touches. Node
// keys use A (B is 0); the friendship key orders its endpoints (A ≤ B) so
// the two orientations of the undirected edge collide, and the like key is
// (user, comment). ChangeKey is comparable and suitable as a map key.
type ChangeKey struct {
	Kind KeyKind
	A, B ID
}

// Key returns the change's canonical key.
func (ch *Change) Key() ChangeKey {
	switch ch.Kind {
	case KindAddPost:
		return ChangeKey{Kind: KeyPost, A: ch.Post.ID}
	case KindAddComment:
		return ChangeKey{Kind: KeyComment, A: ch.Comment.ID}
	case KindAddUser:
		return ChangeKey{Kind: KeyUser, A: ch.User.ID}
	case KindAddFriendship, KindRemoveFriendship:
		a, b := ch.Friendship.User1, ch.Friendship.User2
		if a > b {
			a, b = b, a
		}
		return ChangeKey{Kind: KeyFriendship, A: a, B: b}
	case KindAddLike, KindRemoveLike:
		return ChangeKey{Kind: KeyLike, A: ch.Like.UserID, B: ch.Like.CommentID}
	default:
		// Unknown kinds key on themselves alone so they never alias a real
		// element; validation rejects them before they are applied.
		return ChangeKey{Kind: KeyKind(0xff), A: ID(ch.Kind)}
	}
}

// Normalize rewrites every change into its canonical form in place:
// friendship endpoints are ordered User1 ≤ User2 (the undirected edge's two
// spellings become one). Engines accept either spelling, but a normalized
// set has the property that equal keys imply equal encodings — the
// invariant the keyed Apply index relies on.
func (cs *ChangeSet) Normalize() {
	for i := range cs.Changes {
		ch := &cs.Changes[i]
		if ch.Kind == KindAddFriendship || ch.Kind == KindRemoveFriendship {
			if ch.Friendship.User1 > ch.Friendship.User2 {
				ch.Friendship.User1, ch.Friendship.User2 = ch.Friendship.User2, ch.Friendship.User1
			}
		}
	}
}

// Retraction is a subtractive delta: a self-contained subgraph, named by
// its users and comments, to be removed wholesale from an engine's
// maintained state. Self-contained means every like of a listed comment
// comes from a listed user and every friendship of a listed user joins two
// listed users, so the edges go with their endpoints and need no listing.
// It is the donor side of a shard group migration: the donor's Q2 engine
// subtracts the migrated group (core.Q2IncrementalCC.Retract) instead of
// reloading its entire remaining partition.
type Retraction struct {
	Users    []ID
	Comments []ID
}
