package core

// Ranking is an indexed binary heap of entries ordered by Less, best entry
// at the root, keyed by a dense non-negative integer (an engine's entity
// index). It is the one incremental ranking of the engines: setting or
// removing one key costs O(log n), whether its score rose or fell, and
// the best k entries are read from the first 2^k − 1 heap slots, because
// every ancestor of an entry ranks before it, so the i-th best entry sits
// at depth at most i−1.
//
// The zero value is an empty ranking.
type Ranking struct {
	heap []rankSlot
	pos  []int32 // key → heap slot + 1; 0 means absent
	top  Ranker
}

type rankSlot struct {
	key int
	e   Entry
}

// Len reports the number of ranked keys.
func (r *Ranking) Len() int { return len(r.heap) }

// Set ranks key with entry e, replacing its previous entry if any.
func (r *Ranking) Set(key int, e Entry) {
	for key >= len(r.pos) {
		r.pos = append(r.pos, 0)
	}
	if p := r.pos[key]; p > 0 {
		i := int(p - 1)
		up := Less(e, r.heap[i].e)
		r.heap[i].e = e
		if up {
			r.up(i)
		} else {
			r.down(i)
		}
		return
	}
	r.heap = append(r.heap, rankSlot{key: key, e: e})
	i := len(r.heap) - 1
	r.pos[key] = int32(i + 1)
	r.up(i)
}

// Get returns key's entry and whether key is ranked.
func (r *Ranking) Get(key int) (Entry, bool) {
	if key >= len(r.pos) || r.pos[key] == 0 {
		return Entry{}, false
	}
	return r.heap[r.pos[key]-1].e, true
}

// Remove drops key from the ranking; an absent key is a no-op.
func (r *Ranking) Remove(key int) {
	if key >= len(r.pos) || r.pos[key] == 0 {
		return
	}
	i := int(r.pos[key] - 1)
	r.pos[key] = 0
	last := len(r.heap) - 1
	if i != last {
		r.heap[i] = r.heap[last]
		r.pos[r.heap[i].key] = int32(i + 1)
	}
	r.heap = r.heap[:last]
	if i < last {
		r.down(i)
		r.up(i)
	}
}

// Top returns the best k entries in order.
func (r *Ranking) Top(k int) Result {
	r.top.k = k
	r.top.Reset()
	for i := 0; i < len(r.heap) && i < 1<<k-1; i++ {
		r.top.Consider(r.heap[i].e)
	}
	return r.top.Result()
}

func (r *Ranking) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(r.heap[i].e, r.heap[parent].e) {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

func (r *Ranking) down(i int) {
	n := len(r.heap)
	for {
		best := i
		if l := 2*i + 1; l < n && Less(r.heap[l].e, r.heap[best].e) {
			best = l
		}
		if rt := 2*i + 2; rt < n && Less(r.heap[rt].e, r.heap[best].e) {
			best = rt
		}
		if best == i {
			return
		}
		r.swap(i, best)
		i = best
	}
}

func (r *Ranking) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.pos[r.heap[i].key] = int32(i + 1)
	r.pos[r.heap[j].key] = int32(j + 1)
}
