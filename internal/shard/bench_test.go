package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
)

// donorFixture builds a 2-shard workload in which a small group (the
// migrated-group size, fixed) bridges into a big group on the other shard,
// forcing the donor — which also holds a `remaining`-sized partition — to
// give the small group up. The deterministic initial placement puts the
// biggest group alone on shard 0 and the remaining + small groups on shard
// 1, so the bridge always migrates the small group 1→0 and the donor's
// surviving partition has exactly `remaining`+1 entities.
//
// Sweeping `remaining` with the group size fixed shows the flat-vs-linear
// contrast: incremental repair (Q2IncrementalCC.Retract) stays flat, while
// rebuilding the donor's Q2 engine grows with the surviving partition.
func donorFixture(remaining, group int) (*model.Snapshot, *model.ChangeSet) {
	big := remaining + group + 10 // strictly biggest: placed first, wins the merge
	snap := &model.Snapshot{Posts: []model.Post{{ID: 1, Timestamp: 1}}}
	addGroup := func(comment model.ID, firstUser model.ID, n int) {
		snap.Comments = append(snap.Comments, model.Comment{ID: comment, Timestamp: int64(comment), ParentID: 1, PostID: 1})
		for i := 0; i < n; i++ {
			u := firstUser + model.ID(i)
			snap.Users = append(snap.Users, model.User{ID: u})
			snap.Likes = append(snap.Likes, model.Like{UserID: u, CommentID: comment})
		}
	}
	addGroup(10, 1_000_000, big)
	addGroup(11, 2_000_000, remaining)
	addGroup(12, 3_000_000, group)
	bridge := &model.ChangeSet{Changes: []model.Change{
		{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 3_000_000, User2: 1_000_000}},
	}}
	return snap, bridge
}

// sweepDonor runs bench once per surviving-partition size.
func sweepDonor(b *testing.B, bench func(b *testing.B, snap *model.Snapshot, bridge *model.ChangeSet)) {
	const group = 8
	for _, remaining := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("remaining%d", remaining), func(b *testing.B) {
			snap, bridge := donorFixture(remaining, group)
			bench(b, snap, bridge)
		})
	}
}

// newDonorRuntime starts a fresh 2-shard runtime over a copy of snap.
func newDonorRuntime(b *testing.B, snap *model.Snapshot) *Runtime {
	rt, err := New(2, snap.Clone())
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// commitBridge commits a copy of the bridge.
func commitBridge(b *testing.B, rt *Runtime, bridge *model.ChangeSet) {
	cs := &model.ChangeSet{Changes: append([]model.Change(nil), bridge.Changes...)}
	if _, err := rt.Commit(cs); err != nil {
		b.Fatal(err)
	}
}

// donorShard returns the one shard that repaired.
func donorShard(b *testing.B, rt *Runtime) int {
	donor := -1
	for _, st := range rt.ShardStats() {
		if st.Repairs > 0 {
			if donor >= 0 {
				b.Fatalf("shards %d and %d both repaired", donor, st.Shard)
			}
			donor = st.Shard
		}
	}
	if donor < 0 {
		b.Fatal("the bridge migrated no group")
	}
	return donor
}

// BenchmarkDonorRepair times the cross-shard merge commit, in which the
// donor subtracts the migrated group through its Q2 engine's Retract: cost
// tracks the migrated-group size, not the donor's surviving partition.
// repair-ns/op is the retraction alone; ns/op also pays routing, the
// recipient's adds and the per-commit stats observation.
func BenchmarkDonorRepair(b *testing.B) {
	sweepDonor(b, func(b *testing.B, snap *model.Snapshot, bridge *model.ChangeSet) {
		var repairNs float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := newDonorRuntime(b, snap)
			b.StartTimer()
			commitBridge(b, rt, bridge)
			b.StopTimer()
			repairNs += float64(rt.ShardStats()[donorShard(b, rt)].RepairTotal.Nanoseconds())
			rt.Close()
		}
		b.ReportMetric(repairNs/float64(b.N), "repair-ns/op")
	})
}

// BenchmarkDonorReload is the baseline the repair replaced: after the same
// commit it times rebuilding the donor's Q2 engine from its surviving
// partition — rendering the partition, then Load and Initial on a fresh
// engine — so cost grows with the partition.
func BenchmarkDonorReload(b *testing.B) {
	sweepDonor(b, func(b *testing.B, snap *model.Snapshot, bridge *model.ChangeSet) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := newDonorRuntime(b, snap)
			commitBridge(b, rt, bridge)
			donor := donorShard(b, rt)
			b.StartTimer()
			sol := core.NewQ2IncrementalCC()
			if err := sol.Load(rt.router.q2Snapshot(donor)); err != nil {
				b.Fatal(err)
			}
			if _, err := sol.Initial(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rt.Close()
		}
	})
}

// BenchmarkCommitSteady times steady-state single-like commits on 2 shards
// at two graph sizes. Each commit likes a fresh (user, comment) pair, so
// every one routes, updates the engines of one or two shards and observes
// both engines' answers and stats. Per-commit work follows the change, so
// ns/op should stay roughly flat from sf 4 to sf 16.
func BenchmarkCommitSteady(b *testing.B) {
	for _, sf := range []int{4, 16} {
		b.Run(fmt.Sprintf("sf%d", sf), func(b *testing.B) {
			snap := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1, ChangeSets: 1}).Snapshot
			liked := make(map[model.Like]struct{}, len(snap.Likes))
			for _, l := range snap.Likes {
				liked[l] = struct{}{}
			}
			rt, err := New(2, snap)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			users, comments := snap.Users, snap.Comments
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var l model.Like
				for {
					l = model.Like{UserID: users[rng.Intn(len(users))].ID, CommentID: comments[rng.Intn(len(comments))].ID}
					if _, dup := liked[l]; !dup {
						break
					}
				}
				liked[l] = struct{}{}
				if _, err := rt.Commit(&model.ChangeSet{Changes: []model.Change{{Kind: model.KindAddLike, Like: l}}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommitReplay replays the servebench update stream (datagen,
// RemovalFraction 0.2, 2000 change sets, one set per Commit) on a 2-shard
// runtime at sf 16, 64 and 128, and reports the cost per set: ns/set and
// B/set (allocated bytes). Runtime start-up is excluded. Per-set cost
// should follow the sets, not the graph.
func BenchmarkCommitReplay(b *testing.B) {
	const sets = 2000
	for _, sf := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("sf%d", sf), func(b *testing.B) {
			d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1, ChangeSets: sets, RemovalFraction: 0.2})
			var ns, bytes float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt, err := New(2, d.Snapshot.Clone())
				if err != nil {
					b.Fatal(err)
				}
				stream := make([]model.ChangeSet, len(d.ChangeSets))
				for k := range d.ChangeSets {
					stream[k].Changes = append([]model.Change(nil), d.ChangeSets[k].Changes...)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				b.StartTimer()
				for k := range stream {
					if _, err := rt.Commit(&stream[k]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns += float64(time.Since(start).Nanoseconds())
				runtime.ReadMemStats(&after)
				bytes += float64(after.TotalAlloc - before.TotalAlloc)
				rt.Close()
			}
			b.ReportMetric(ns/float64(b.N*sets), "ns/set")
			b.ReportMetric(bytes/float64(b.N*sets), "B/set")
		})
	}
}
