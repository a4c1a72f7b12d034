package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// TestRankingMatchesBruteForce drives random sets (scores rising and
// falling), re-sets and removals through a Ranking and checks its top-k
// against a full ranking of the live keys after every step, for every k
// up to 4. Scores and timestamps come from small ranges, so ties decided
// by timestamp and by id are common.
func TestRankingMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ranking
		live := make(map[int]Entry)
		for step := 0; step < 3000; step++ {
			key := rng.Intn(200)
			if rng.Intn(4) == 0 {
				r.Remove(key)
				delete(live, key)
			} else {
				e := Entry{ID: model.ID(key), Score: int64(rng.Intn(8)), Timestamp: int64(rng.Intn(5))}
				r.Set(key, e)
				live[key] = e
			}
			if r.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len %d, %d live", seed, step, r.Len(), len(live))
			}
			for k := 1; k <= 4; k++ {
				want := NewTopK(k)
				for _, e := range live {
					want.Consider(e)
				}
				if got, w := r.Top(k).String(), want.Result().String(); got != w {
					t.Fatalf("seed %d step %d: Top(%d) = %q, brute force %q", seed, step, k, got, w)
				}
			}
		}
	}
}

// TestRankingSetDoesNotAllocate pins that re-ranking a present key and
// removing and re-adding one stay in place once the heap has its size.
func TestRankingSetDoesNotAllocate(t *testing.T) {
	var r Ranking
	for k := 0; k < 1000; k++ {
		r.Set(k, Entry{ID: model.ID(k), Score: int64(k % 17)})
	}
	score := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		score = (score + 7) % 23
		r.Set(500, Entry{ID: 500, Score: score})
		r.Remove(400)
		r.Set(400, Entry{ID: 400, Score: 23 - score})
	})
	if allocs != 0 {
		t.Fatalf("Set/Remove of present keys allocates %.1f times per run", allocs)
	}
}
