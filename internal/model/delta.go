package model

// This file is the change-key delta layer: every Change has a canonical
// ChangeKey identifying the model element it touches, and a ChangeSet can be
// normalized and compacted under those keys. It is the same
// change-propagation idea the paper applies inside the GraphBLAS engines,
// lifted to the model so the layers above (engines, shard router, WAL) can
// reason about update streams as keyed deltas instead of opaque change
// lists: add+remove pairs on the same key supersede each other, duplicates
// collapse, and a self-contained subgraph can be expressed as a Retraction
// and subtracted from an engine instead of rebuilding it.

// KeyKind identifies the model element family a ChangeKey addresses. Unlike
// ChangeKind it is operation-free: KindAddLike and KindRemoveLike changes on
// the same edge share one key, which is what makes supersession detectable.
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
		// element; validation rejects them long before compaction runs.
		return ChangeKey{Kind: KeyKind(0xff), A: ID(ch.Kind)}
	}
}

// Normalize rewrites every change into its canonical form in place:
// friendship endpoints are ordered User1 ≤ User2 (the undirected edge's two
// spellings become one). Engines accept either spelling, but a normalized
// set has the property that equal keys imply equal encodings — the
// invariant the WAL compactor and the keyed Apply index rely on.
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

// Compact normalizes the set and collapses it under change keys, in place:
// node insertions deduplicate (keeping their first position — a node add
// must stay ahead of the edges that reference it), and each edge key's
// add/remove history reduces to its net effect. In a referentially valid
// history an edge key's operations alternate add/remove, so the net effect
// follows from the first and last operation alone:
//
//	first add,    last add    → one add (edge absent before, present after)
//	first add,    last remove → nothing (absent before and after)
//	first remove, last remove → one remove (present before, absent after)
//	first remove, last add    → nothing (present before and after)
//
// Surviving edge operations keep their *last* position, which is after
// every node they reference (the node existed before the edge's final
// operation). Compact therefore preserves referential validity and the
// final applied state, but not intermediate states: it is meant for
// replay-shaped histories (WAL segments, migration streams), not for live
// commits whose intermediate answers readers observed.
func (cs *ChangeSet) Compact() {
	cs.Normalize()
	mask := CompactionMask(cs.Changes)
	if mask == nil {
		return
	}
	out := cs.Changes[:0]
	for i := range cs.Changes {
		if mask[i] {
			out = append(out, cs.Changes[i])
		}
	}
	cs.Changes = out
}

// CompactionMask reports, per change, whether it survives change-key
// compaction of the slice under ChangeSet.Compact's rules. A nil mask means
// every key occurs exactly once — nothing collapses. The mask form exists
// for callers that must preserve structure around the changes: the WAL
// compactor applies the same supersession decision while keeping batch
// boundaries and sequence numbers intact. ChangeKey ordering of friendship
// endpoints is applied by Key itself, so the input need not be normalized.
func CompactionMask(changes []Change) []bool {
	type span struct {
		first, last int  // positions of the key's first/last operation
		firstRem    bool // first operation removes
	}
	spans := make(map[ChangeKey]*span, len(changes))
	keys := 0
	for i := range changes {
		ch := &changes[i]
		k := ch.Key()
		sp, ok := spans[k]
		if !ok {
			spans[k] = &span{first: i, last: i, firstRem: ch.Kind.IsRemoval()}
			keys++
			continue
		}
		sp.last = i
	}
	if keys == len(changes) {
		return nil
	}
	// A key survives at one position: node keys at their first occurrence,
	// edge keys at their last — and only when the first and last operation
	// agree on add-vs-remove (otherwise the key nets out entirely).
	mask := make([]bool, len(changes))
	for i := range changes {
		ch := &changes[i]
		k := ch.Key()
		sp := spans[k]
		switch k.Kind {
		case KeyPost, KeyComment, KeyUser:
			mask[i] = i == sp.first
		default:
			mask[i] = i == sp.last && ch.Kind.IsRemoval() == sp.firstRem
		}
	}
	return mask
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
