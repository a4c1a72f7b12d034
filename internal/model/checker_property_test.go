package model_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestCheckerStateMatchesApply is the property test of the checker's
// materialized state: over random removal-heavy update streams, with
// rejected requests interleaved, State() after every ApplyAll must equal
// Snapshot.Apply over the accepted changes (nodes exactly, edges as sets),
// and the edge maps must index the state's edge slices exactly.
func TestCheckerStateMatchesApply(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := datagen.Generate(datagen.Config{
				ScaleFactor: 1, Seed: seed, RemovalFraction: 0.5,
				ChangeSets: 80, MaxChangesPerSet: 12,
			})
			c, err := model.NewChecker(d.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			want := d.Snapshot.Clone()
			check := func(label string) {
				t.Helper()
				if err := model.SameState(c.State(), want); err != nil {
					t.Fatalf("%s: state: %v", label, err)
				}
				if err := c.CheckIndex(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			check("snapshot")

			// Changes that are invalid in any state: posts are never
			// removed, comment id -1 never exists, and self-friendships
			// are always rejected.
			u := d.Snapshot.Users[0].ID
			invalid := []model.Change{
				{Kind: model.KindAddPost, Post: d.Snapshot.Posts[0]},
				{Kind: model.KindRemoveLike, Like: model.Like{UserID: u, CommentID: -1}},
				{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: u, User2: u}},
			}
			rng := rand.New(rand.NewSource(seed))
			removals, rejected := 0, 0
			for i := range d.ChangeSets {
				changes := d.ChangeSets[i].Changes
				if rng.Intn(2) == 0 {
					// A request that is valid up to its last change: a
					// prefix of this set, then an invalid change.
					n := rng.Intn(len(changes) + 1)
					req := append(append([]model.Change(nil), changes[:n]...), invalid[rng.Intn(len(invalid))])
					if err := c.ApplyAll(req); !errors.Is(err, model.ErrIntegrity) {
						t.Fatalf("set %d: request failing on its last change: %v", i, err)
					}
					check(fmt.Sprintf("set %d rejected", i))
					rejected++
				}
				if err := c.ApplyAll(changes); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
				want.Apply(&d.ChangeSets[i])
				check(fmt.Sprintf("set %d", i))
				removals += d.ChangeSets[i].RemovalCount()
			}
			if removals == 0 || rejected == 0 {
				t.Fatalf("%d removals, %d rejected requests: the stream exercises nothing", removals, rejected)
			}
		})
	}
}
