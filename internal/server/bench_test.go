package server

import (
	"encoding/json"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/wal"
)

// BenchmarkReadMergeCached measures the read hot path with and without the
// per-snapshot epoch cache: between commits every /query answer is
// identical, so the cached path serves the previously marshaled bytes
// (zero encodes, zero allocations) while the uncached path re-marshals the
// response per request — the allocation profile every read paid before
// this PR. Emitted into BENCH_PR.json by the bench CI job.
func BenchmarkReadMergeCached(b *testing.B) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	srv, err := New(Config{Dataset: d})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	b.Run("Cached", func(b *testing.B) {
		snap := srv.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if body := snap.queryBody("Q1", EngineQ1); len(body) == 0 {
				b.Fatal("empty body")
			}
		}
	})
	b.Run("Uncached", func(b *testing.B) {
		snap := srv.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(queryResponse{
				Query:   "Q1",
				Engine:  EngineQ1,
				Result:  snap.Results[EngineQ1],
				Seq:     snap.Seq,
				Changes: snap.Changes,
				AsOf:    snap.At,
			})
			if err != nil || len(body) == 0 {
				b.Fatal("marshal failed")
			}
		}
	})
}

// BenchmarkWaitedUpdate measures one waited update on an otherwise idle
// persistent server: each op enqueues a one-change set and blocks until it
// is durable (Fsync always) and published on both shards. The writer
// commits a lone request the moment it takes it, so an op costs
// validation, one WAL append and fsync, the shard commit and the publish.
func BenchmarkWaitedUpdate(b *testing.B) {
	d := datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 2018})
	srv, err := New(Config{Dataset: d, Shards: 2, PersistDir: b.TempDir(), Fsync: wal.SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := []model.Change{{Kind: model.KindAddUser, User: model.User{ID: model.ID(7_000_000 + i)}}}
		if err := srv.Enqueue(ch, true); err != nil {
			b.Fatal(err)
		}
	}
}
