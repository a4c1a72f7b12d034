package model_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// BenchmarkCheckerRemoval times one like removal plus its re-add, so the
// state stays the same size, at growing graph sizes. The checker
// validates and applies the pair in one O(|delta|) pass: removal moves the
// last like into the freed slot. The apply baseline runs the same change
// set through Snapshot.Apply, whose removal indexes the whole like slice.
// The checker's ns/op should stay flat across scale factors while apply's
// grows with them.
func BenchmarkCheckerRemoval(b *testing.B) {
	for _, sf := range []int{1, 16, 64} {
		d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
		l := d.Snapshot.Likes[len(d.Snapshot.Likes)/2]
		op := []model.Change{
			{Kind: model.KindRemoveLike, Like: l},
			{Kind: model.KindAddLike, Like: l},
		}
		b.Run(fmt.Sprintf("sf%d/checker", sf), func(b *testing.B) {
			c, err := model.NewChecker(d.Snapshot)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ApplyAll(op); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sf%d/apply", sf), func(b *testing.B) {
			s := d.Snapshot.Clone()
			cs := &model.ChangeSet{Changes: op}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply(cs)
			}
		})
	}
}
