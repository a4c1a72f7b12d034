package wal

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/model"
)

// Persistence hot paths, exercised once per PR by the bench CI job (and
// with a real -benchtime locally): WAL appends under each fsync policy —
// the commit path's added latency — and snapshot encode/decode — the
// snapshot cadence and recovery costs.

func BenchmarkAppend(b *testing.B) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		b.Run(p.String(), func(b *testing.B) {
			l, _, err := Open(Options{Dir: b.TempDir(), Sync: p, SyncInterval: 10 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			changes := testChanges(1)
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(uint64(i+1), changes); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			bytes = l.Metrics().AppendedBytes
			b.SetBytes(bytes / int64(b.N))
		})
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	for _, sf := range []int{1, 4} {
		b.Run(fmt.Sprintf("sf=%d", sf), func(b *testing.B) {
			d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 2018})
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := encodeSnapshotStream(&buf, uint64(i), 0, d.Snapshot, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, sf := range []int{1, 4} {
		b.Run(fmt.Sprintf("sf=%d", sf), func(b *testing.B) {
			d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 2018})
			var buf bytes.Buffer
			if err := encodeSnapshotStream(&buf, 1, 0, d.Snapshot, 0, nil); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := decodeSnapshot(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotStall measures the worst-case *writer pause* a durable
// snapshot inflicts at sf 8, with the snapshot written inline versus handed
// off (the acceptance bar for the handoff is a ≥10× drop):
//
//   - Blocking: the writer calls the snapshot writer inline and sits
//     through the whole encode + temp file + fsync + rename + dir fsync.
//     The pause is the entire call.
//   - Streaming: the writer's pause is the O(1) copy-on-write handoff
//     (clamped slice headers) plus, as the worst case, one COW clone of
//     the edge arrays — what a removal batch pays while the background
//     goroutine encodes. The encode itself runs off the timed path and is
//     awaited (untimed) before the next iteration.
//
// ns/op is the mean pause; the "worst-pause-ns" metric is the max across
// iterations, the number a tail-latency SLO actually cares about.
func BenchmarkSnapshotStall(b *testing.B) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 8, Seed: 2018})
	b.Run("Blocking/sf=8", func(b *testing.B) {
		l, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		var worst time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if err := l.WriteSnapshotStream(uint64(i+1), 0, d.Snapshot, nil); err != nil {
				b.Fatal(err)
			}
			if pause := time.Since(start); pause > worst {
				worst = pause
			}
		}
		b.ReportMetric(float64(worst.Nanoseconds()), "worst-pause-ns")
	})
	b.Run("Streaming/sf=8", func(b *testing.B) {
		l, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		curr := d.Snapshot.Clone()
		var worst time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			view := &model.Snapshot{
				Posts:       curr.Posts[:len(curr.Posts):len(curr.Posts)],
				Comments:    curr.Comments[:len(curr.Comments):len(curr.Comments)],
				Users:       curr.Users[:len(curr.Users):len(curr.Users)],
				Friendships: curr.Friendships[:len(curr.Friendships):len(curr.Friendships)],
				Likes:       curr.Likes[:len(curr.Likes):len(curr.Likes)],
			}
			done := make(chan error, 1)
			go func(seq uint64) { done <- l.WriteSnapshotStream(seq, 0, view, nil) }(uint64(i + 1))
			// Worst case while the encode is in flight: a removal batch
			// forces the copy-on-write clone of the edge arrays.
			curr.Friendships = append([]model.Friendship(nil), curr.Friendships...)
			curr.Likes = append([]model.Like(nil), curr.Likes...)
			if pause := time.Since(start); pause > worst {
				worst = pause
			}
			b.StopTimer()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(worst.Nanoseconds()), "worst-pause-ns")
	})
}

// BenchmarkSnapshotWrite measures the full durable snapshot path (encode +
// temp file + fsync + rename + dir sync) — what the serving writer pays
// every SnapshotEvery commits.
func BenchmarkSnapshotWrite(b *testing.B) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	l, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteSnapshotStream(uint64(i+1), 0, d.Snapshot, nil); err != nil {
			b.Fatal(err)
		}
	}
}
