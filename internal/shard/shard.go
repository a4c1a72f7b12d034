// Package shard runs the paper's incremental engines as an N-way sharded
// runtime. Each shard owns a disjoint partition of the graph — posts (with
// their comment subtrees) for Q1, friendship-connected groups of users and
// the comments they like for Q2 — and one writer goroutine per shard
// applies that shard's slice of every committed change set to its own warm
// engines: one Q1 engine (core.Q1Incremental) and one Q2 engine
// (core.Q2IncrementalCC). Because ownership is exclusive and each
// partition is closed under the edges its query reads, every shard's top-3
// answer is exact for the entities it owns, and the global answer is
// recovered at read time by merging the per-shard answers with
// core.MergedTopK — the sharded runtime is change-for-change
// indistinguishable from a single engine.
//
// Commits are barriers: Commit routes the change set (rebalancing Q2
// groups that a new edge merged across shards), fans the per-shard work out
// to the writer goroutines, and returns the merged results only after
// every shard has applied its slice — so a committed change set is visible
// on all shards at once and a serving layer's wait=1 keeps meaning
// "globally visible".
package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// Stats is one shard's serving statistics.
type Stats struct {
	Shard int
	// Depth is the shard's queued-command count at observation time.
	Depth int
	// Commits counts commands the shard's writer has applied.
	Commits int
	// Repairs counts commits in which the shard donated a Q2 group and
	// retracted it from its Q2 engine (core.Q2IncrementalCC.Retract).
	Repairs int
	// Last and Total aggregate the shard's apply latencies; RepairLast and
	// RepairTotal the subtractive-delta portion of repair commits.
	Last        time.Duration
	Total       time.Duration
	RepairLast  time.Duration
	RepairTotal time.Duration
}

// Mean is the shard's mean apply latency.
func (s Stats) Mean() time.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Commits)
}

// RepairMean is the shard's mean incremental-repair latency.
func (s Stats) RepairMean() time.Duration {
	if s.Repairs == 0 {
		return 0
	}
	return s.RepairTotal / time.Duration(s.Repairs)
}

// command is one commit's slice of work for a single shard.
type command struct {
	q1 []model.Change // post-routed stream, applied to the Q1 engine
	q2 []model.Change // group-routed stream, applied after ops
	// ops are the shard's chronological migration steps: retractions when it
	// donates a group, synthetic adds when it receives one.
	ops  []shardOp
	resp chan<- response
}

type response struct {
	shard     int
	err       error
	obs       observation
	repaired  bool // a donated group was subtracted via Retract
	repairDur time.Duration
	elapsed   time.Duration
}

// observation is one shard's last committed answers and state sizes.
type observation struct {
	q1, q2           core.Result
	q1Stats, q2Stats core.EngineStats
}

// worker owns one shard's engines. Only its goroutine touches them after
// startup.
type worker struct {
	id   int
	cmds chan command
	done chan struct{}
	q1   *core.Q1Incremental
	q2   *core.Q2IncrementalCC
}

// Runtime is the sharded engine runtime. New loads the partitions and
// starts one writer goroutine per shard; Commit routes and applies one
// change set with a global barrier; Results/Stats serve reads. Commit and
// Results/EngineTotals must be called from a single committing goroutine;
// ShardStats and Rebalances are safe from any goroutine.
type Runtime struct {
	n       int
	router  *router
	workers []*worker

	loadDur    time.Duration
	initialDur time.Duration

	mu             sync.Mutex
	last           []observation
	meta           []Stats
	rebalances     int
	parkedComments int

	// merge is the reusable top-k heap Results folds the per-shard answers
	// through — one commit-path merge per query per commit, so a fresh
	// allocation each round is pure garbage. Owned by the committing
	// goroutine (the only caller of Results).
	merge *core.MergedTopK

	closeOnce sync.Once
}

// New partitions the snapshot over n shards, loads and initially evaluates
// every shard's engines (in parallel across shards), and starts the
// per-shard writers.
func New(n int, snap *model.Snapshot) (*Runtime, error) {
	if n < 1 || n > maxShards {
		return nil, fmt.Errorf("shard: shard count must be in [1, %d] (got %d)", maxShards, n)
	}
	if snap == nil {
		return nil, fmt.Errorf("shard: nil snapshot")
	}
	router, err := newRouter(n, snap)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		n:              n,
		router:         router,
		workers:        make([]*worker, n),
		last:           make([]observation, n),
		meta:           make([]Stats, n),
		parkedComments: router.parkedRank.Len(),
		merge:          core.NewMergedTopK(core.TopK),
	}
	for s := 0; s < n; s++ {
		rt.workers[s] = &worker{
			id:   s,
			cmds: make(chan command, 1),
			done: make(chan struct{}),
			q1:   core.NewQ1Incremental(),
			q2:   core.NewQ2IncrementalCC(),
		}
		rt.meta[s].Shard = s
		router.engines = append(router.engines, rt.workers[s].q2)
	}

	errs := make([]error, n)
	phase := func(f func(w *worker, s int) error) {
		var wg sync.WaitGroup
		for s := 0; s < n; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if errs[s] == nil {
					errs[s] = f(rt.workers[s], s)
				}
			}(s)
		}
		wg.Wait()
	}

	start := time.Now()
	q1In, q2In := router.q1Cuts(snap), router.q2Cuts(snap)
	phase(func(w *worker, s int) error {
		if err := w.q1.Load(q1In[s]); err != nil {
			return fmt.Errorf("shard %d: %s load: %w", s, w.q1.Name(), err)
		}
		if err := w.q2.Load(q2In[s]); err != nil {
			return fmt.Errorf("shard %d: %s load: %w", s, w.q2.Name(), err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rt.loadDur = time.Since(start)

	start = time.Now()
	phase(func(w *worker, s int) error {
		for _, sol := range []core.Solution{w.q1, w.q2} {
			if _, err := sol.Initial(); err != nil {
				return fmt.Errorf("shard %d: %s initial: %w", s, sol.Name(), err)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rt.initialDur = time.Since(start)

	for s := 0; s < n; s++ {
		rt.last[s] = rt.workers[s].observe()
		go rt.workers[s].run()
	}
	return rt, nil
}

// observe captures both engines' last committed answers and state sizes.
func (w *worker) observe() observation {
	q1, _ := w.q1.LastResult()
	q2, _ := w.q2.LastResult()
	return observation{q1: q1, q2: q2, q1Stats: w.q1.Stats(), q2Stats: w.q2.Stats()}
}

func (w *worker) run() {
	defer close(w.done)
	for cmd := range w.cmds {
		start := time.Now()
		resp := response{shard: w.id}
		resp.err = w.apply(cmd, &resp)
		if resp.err == nil {
			resp.obs = w.observe()
		}
		resp.elapsed = time.Since(start)
		cmd.resp <- resp
	}
}

func (w *worker) apply(cmd command, resp *response) error {
	if len(cmd.q1) > 0 {
		if _, err := w.q1.Update(&model.ChangeSet{Changes: cmd.q1}); err != nil {
			return fmt.Errorf("shard %d: %s update: %w", w.id, w.q1.Name(), err)
		}
	}
	// The ops replay in order. Migrated-in subgraphs are additive, so they
	// batch up with whatever follows them; a retraction (this shard donating
	// a group) first applies the adds queued ahead of it. The last batch
	// carries the routed stream, so a commit without ops is one plain
	// update.
	var adds []model.Change
	for _, op := range cmd.ops {
		if op.retract == nil {
			adds = append(adds, op.synthetic...)
			continue
		}
		if err := w.updateQ2(adds); err != nil {
			return err
		}
		adds = nil
		start := time.Now()
		if _, err := w.q2.Retract(op.retract); err != nil {
			return fmt.Errorf("shard %d: %s retract: %w", w.id, w.q2.Name(), err)
		}
		resp.repairDur += time.Since(start)
		resp.repaired = true
	}
	q2 := cmd.q2
	if len(adds) > 0 {
		q2 = append(adds, cmd.q2...)
	}
	return w.updateQ2(q2)
}

// updateQ2 applies one batch of Q2 changes; an empty batch is a no-op.
func (w *worker) updateQ2(changes []model.Change) error {
	if len(changes) == 0 {
		return nil
	}
	if _, err := w.q2.Update(&model.ChangeSet{Changes: changes}); err != nil {
		return fmt.Errorf("shard %d: %s update: %w", w.id, w.q2.Name(), err)
	}
	return nil
}

// Commit routes one validated change set, fans the per-shard slices out to
// the writer goroutines, waits for every touched shard (the commit
// barrier), and returns the merged global results. On error the runtime
// must be considered diverged: some shards may have applied their slice
// while another failed. Callers should stop committing (the serving layer
// turns this into its broken state).
func (rt *Runtime) Commit(cs *model.ChangeSet) (map[string]string, error) {
	// Routing extracts migrating groups from the shards' Q2 engines. Every
	// worker is idle here: the previous commit's barrier received each
	// dispatched shard's response, so the engines' last writes are visible.
	p, err := rt.router.route(cs)
	if err != nil {
		return nil, err
	}
	respCh := make(chan response, rt.n)
	active := 0
	for s := 0; s < rt.n; s++ {
		cmd := command{q1: p.q1[s], q2: p.q2[s], ops: p.ops[s], resp: respCh}
		if len(cmd.q1) == 0 && len(cmd.q2) == 0 && len(cmd.ops) == 0 {
			continue
		}
		rt.workers[s].cmds <- cmd
		active++
	}
	var firstErr error
	rt.mu.Lock()
	rt.rebalances = rt.router.rebalances
	rt.parkedComments = rt.router.parkedRank.Len()
	rt.mu.Unlock()
	for i := 0; i < active; i++ {
		resp := <-respCh
		rt.mu.Lock()
		if resp.err != nil {
			// A failed apply is not a commit: leave the shard's stats
			// untouched so /stats reflects only applied commands.
			if firstErr == nil {
				firstErr = resp.err
			}
		} else {
			m := &rt.meta[resp.shard]
			m.Commits++
			m.Last = resp.elapsed
			m.Total += resp.elapsed
			if resp.repaired {
				m.Repairs++
				m.RepairLast = resp.repairDur
				m.RepairTotal += resp.repairDur
			}
			rt.last[resp.shard] = resp.obs
		}
		rt.mu.Unlock()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rt.Results(), nil
}

// Results merges the per-shard last-committed answers into the global
// top-3 per query, keyed "q1" and "q2". The Q2 merge includes the router's
// parked (likeless, zero-scoring) comments as a virtual partition. Must be
// called from the committing goroutine (it reads router state).
func (rt *Runtime) Results() map[string]string {
	parked := rt.router.parkedTopK()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.merge.Reset()
	for _, o := range rt.last {
		rt.merge.Merge(o.q1)
	}
	q1 := rt.merge.Result().String()
	rt.merge.Reset()
	rt.merge.Merge(parked)
	for _, o := range rt.last {
		rt.merge.Merge(o.q2)
	}
	return map[string]string{"q1": q1, "q2": rt.merge.Result().String()}
}

// EngineTotals merges both engines' state sizes across shards, keyed "q1"
// and "q2". Partitioned dimensions sum; dimensions replicated into every
// partition — users in Q1 partitions, posts in Q2 partitions — take the
// maximum, so the totals count distinct entities rather than replicas.
func (rt *Runtime) EngineTotals() map[string]core.EngineStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var q1, q2 core.EngineStats
	for _, o := range rt.last {
		q1 = addPartition(q1, o.q1Stats, true)
		q2 = addPartition(q2, o.q2Stats, false)
	}
	return map[string]core.EngineStats{"q1": q1, "q2": q2}
}

// addPartition folds one shard's state sizes into a total. Comments and
// stored entries always sum; usersReplicated says whether users (Q1) or
// posts (Q2) are the dimension every partition replicates.
func addPartition(t, st core.EngineStats, usersReplicated bool) core.EngineStats {
	t.Comments += st.Comments
	t.NNZ += st.NNZ
	t.Pending += st.Pending
	if usersReplicated {
		t.Posts += st.Posts
		t.Users = max(t.Users, st.Users)
	} else {
		t.Posts = max(t.Posts, st.Posts)
		t.Users += st.Users
	}
	return t
}

// ShardStats reports each shard's queue depth and apply latencies. Safe
// for concurrent use with Commit.
func (rt *Runtime) ShardStats() []Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]Stats, rt.n)
	copy(out, rt.meta)
	for s := range out {
		out[s].Depth = len(rt.workers[s].cmds)
	}
	return out
}

// Rebalances reports how many Q2 group migrations the router has
// performed. Safe for concurrent use with Commit.
func (rt *Runtime) Rebalances() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rebalances
}

// ParkedComments reports how many likeless comments the router currently
// holds outside every Q2 partition (they rank as a virtual partition; see
// internal/shard/router.go). Engine comment totals plus this count cover
// all comments. Safe for concurrent use with Commit.
func (rt *Runtime) ParkedComments() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.parkedComments
}

// LoadDuration is the parallel partition-load phase latency.
func (rt *Runtime) LoadDuration() time.Duration { return rt.loadDur }

// InitialDuration is the parallel initial-evaluation phase latency.
func (rt *Runtime) InitialDuration() time.Duration { return rt.initialDur }

// Close stops every shard writer after it drains its queue. Idempotent.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		for _, w := range rt.workers {
			close(w.cmds)
		}
		for _, w := range rt.workers {
			<-w.done
		}
	})
}
