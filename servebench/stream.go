package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/server"
)

// stream is one workload's deterministic update stream: the initial graph
// and the change sets sent after it, each with the earlier sets it must wait
// for and its /update request body.
type stream struct {
	initial *model.Snapshot
	sets    []model.ChangeSet
	// deps[i] lists the earlier sets that created or removed something set
	// i reads or writes; set i is held until all of them are acknowledged.
	deps [][]int
	// bodies[i] is set i's POST /update body (wait:true).
	bodies [][]byte
}

// newStream generates the graph and n change sets from the seed. The
// stream is datagen's: Zipf attachment to recent entities, friendships
// between existing users, and RemovalFraction 0.2, which makes about one
// change in six a removal and about two sets in three carry one.
func newStream(sf int, seed int64, n int) (*stream, error) {
	d := datagen.Generate(datagen.Config{
		ScaleFactor:     sf,
		Seed:            seed,
		ChangeSets:      n,
		RemovalFraction: 0.2,
	})
	st := &stream{initial: d.Snapshot, sets: d.ChangeSets, deps: dependencies(d.ChangeSets)}
	st.bodies = make([][]byte, len(st.sets))
	for i := range st.sets {
		b, err := updateBody(st.sets[i].Changes)
		if err != nil {
			return nil, fmt.Errorf("encode set %d: %w", i, err)
		}
		st.bodies[i] = b
	}
	return st, nil
}

// updateBody encodes one change set as a waited /update request.
func updateBody(changes []model.Change) ([]byte, error) {
	wire := make([]any, len(changes))
	for i, ch := range changes {
		wire[i] = server.WireChange(ch)
	}
	return json.Marshal(map[string]any{"changes": wire, "wait": true})
}

// touched returns the keys a change reads (the entities it references) and
// the key it writes (the entity or edge it creates or removes).
func touched(ch *model.Change) (reads []model.ChangeKey, write model.ChangeKey) {
	user := func(id model.ID) model.ChangeKey { return model.ChangeKey{Kind: model.KeyUser, A: id} }
	switch ch.Kind {
	case model.KindAddComment:
		c := ch.Comment
		// The parent is a post or a comment; only one of the two keys can
		// have a writer, so reading both is exact.
		reads = []model.ChangeKey{
			{Kind: model.KeyPost, A: c.PostID},
			{Kind: model.KeyPost, A: c.ParentID},
			{Kind: model.KeyComment, A: c.ParentID},
		}
	case model.KindAddFriendship, model.KindRemoveFriendship:
		reads = []model.ChangeKey{user(ch.Friendship.User1), user(ch.Friendship.User2)}
	case model.KindAddLike, model.KindRemoveLike:
		reads = []model.ChangeKey{user(ch.Like.UserID), {Kind: model.KeyComment, A: ch.Like.CommentID}}
	}
	return reads, ch.Key()
}

// dependencies computes the hold rule: set i depends on the last earlier
// set that created or removed each key set i reads or writes. Waiting for
// the last writer of every key is enough, because that writer itself waited
// for the writers before it.
func dependencies(sets []model.ChangeSet) [][]int {
	lastWriter := make(map[model.ChangeKey]int)
	deps := make([][]int, len(sets))
	for i := range sets {
		seen := make(map[int]bool)
		note := func(k model.ChangeKey) {
			if w, ok := lastWriter[k]; ok && !seen[w] {
				seen[w] = true
				deps[i] = append(deps[i], w)
			}
		}
		for j := range sets[i].Changes {
			reads, write := touched(&sets[i].Changes[j])
			for _, k := range reads {
				note(k)
			}
			note(write)
		}
		for j := range sets[i].Changes {
			lastWriter[sets[i].Changes[j].Key()] = i
		}
	}
	return deps
}
