// Package shard runs the paper's incremental engines as an N-way sharded
// runtime. Each shard owns a disjoint partition of the graph — posts (with
// their comment subtrees) for Q1, friendship-connected groups of users and
// the comments they like for Q2 — and one writer goroutine per shard
// applies that shard's slice of every committed change set to its own warm
// engine instances. Because ownership is exclusive and each partition is
// closed under the edges its query reads, every shard's top-3 answer is
// exact for the entities it owns, and the global answer is recovered at
// read time by merging the per-shard answers with core.MergedTopK — the
// sharded runtime is change-for-change indistinguishable from a single
// engine.
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
	// retracted it from its engines through core.DeltaEngine.
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

// q2Engine is the contract of a served Q2 engine: besides answering the
// query it must retract, because a donor shard subtracts a migrated group
// from its engines instead of rebuilding them.
type q2Engine interface {
	core.Solution
	core.DeltaEngine
}

// engineInst is one warm engine on one shard, under its served key.
type engineInst[S core.Solution] struct {
	key string
	sol S
}

// The served lineup, in serving order: every shard keeps one warm instance
// of each engine, keyed as the serving layer names them.
var (
	q1Lineup = []struct {
		key string
		new func() core.Solution
	}{
		{"q1", func() core.Solution { return core.NewQ1Incremental() }},
	}
	q2Lineup = []struct {
		key string
		new func() q2Engine
	}{
		{"q2", func() q2Engine { return core.NewQ2Incremental() }},
		{"q2cc", func() q2Engine { return core.NewQ2IncrementalCC() }},
	}
)

// command is one commit's slice of work for a single shard.
type command struct {
	q1 []model.Change // post-routed stream, applied to Q1-family engines
	q2 []model.Change // group-routed stream, applied after ops
	// ops are the shard's chronological migration steps: retractions when it
	// donates a group, synthetic adds when it receives one.
	ops  []shardOp
	resp chan<- response
}

type response struct {
	shard     int
	err       error
	results   map[string]core.Result
	stats     map[string]core.EngineStats
	repaired  bool // a donated group was subtracted via DeltaEngine
	repairDur time.Duration
	elapsed   time.Duration
}

// worker owns one shard's engines. Only its goroutine touches them after
// startup.
type worker struct {
	id   int
	cmds chan command
	done chan struct{}
	q1   []engineInst[core.Solution]
	q2   []engineInst[q2Engine]
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
	last           []map[string]core.Result
	lastStats      []map[string]core.EngineStats
	meta           []Stats
	rebalances     int
	parkedComments int

	// merge is the reusable top-k heap Results folds the per-shard answers
	// through — one commit-path merge per engine per commit, so a fresh
	// allocation each round is pure garbage. Owned by the committing
	// goroutine (the only caller of Results).
	merge *core.MergedTopK

	closeOnce sync.Once
}

// New partitions the snapshot over n shards, loads and initially evaluates
// every shard's engines (in parallel across shards), and starts the
// per-shard writers.
func New(n int, snap *model.Snapshot) (*Runtime, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1 (got %d)", n)
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
		last:           make([]map[string]core.Result, n),
		lastStats:      make([]map[string]core.EngineStats, n),
		meta:           make([]Stats, n),
		parkedComments: len(router.parked),
		merge:          core.NewMergedTopK(core.TopK),
	}
	for s := 0; s < n; s++ {
		w := &worker{id: s, cmds: make(chan command, 1), done: make(chan struct{})}
		for _, e := range q1Lineup {
			w.q1 = append(w.q1, engineInst[core.Solution]{e.key, e.new()})
		}
		for _, e := range q2Lineup {
			w.q2 = append(w.q2, engineInst[q2Engine]{e.key, e.new()})
		}
		rt.workers[s] = w
		rt.meta[s].Shard = s
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
	phase(func(w *worker, s int) error {
		q1Snap := router.q1Snapshot(snap, s)
		q2Snap := router.q2Snapshot(s)
		for _, e := range w.q1 {
			if err := e.sol.Load(q1Snap); err != nil {
				return fmt.Errorf("shard %d: %s load: %w", s, e.sol.Name(), err)
			}
		}
		for _, e := range w.q2 {
			if err := e.sol.Load(q2Snap); err != nil {
				return fmt.Errorf("shard %d: %s load: %w", s, e.sol.Name(), err)
			}
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
		for _, e := range w.engines() {
			if _, err := e.sol.Initial(); err != nil {
				return fmt.Errorf("shard %d: %s initial: %w", s, e.sol.Name(), err)
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
		rt.last[s], rt.lastStats[s] = rt.workers[s].observe()
		go rt.workers[s].run()
	}
	return rt, nil
}

func (w *worker) engines() []engineInst[core.Solution] {
	out := append(make([]engineInst[core.Solution], 0, len(w.q1)+len(w.q2)), w.q1...)
	for _, e := range w.q2 {
		out = append(out, engineInst[core.Solution]{e.key, e.sol})
	}
	return out
}

// observe captures every engine's last committed answer and state size.
func (w *worker) observe() (map[string]core.Result, map[string]core.EngineStats) {
	results := make(map[string]core.Result)
	stats := make(map[string]core.EngineStats)
	for _, e := range w.engines() {
		if rs, ok := e.sol.(core.ResultSnapshotter); ok {
			if res, ok := rs.LastResult(); ok {
				results[e.key] = res
			}
		}
		if sr, ok := e.sol.(core.StatsReporter); ok {
			stats[e.key] = sr.Stats()
		}
	}
	return results, stats
}

func (w *worker) run() {
	defer close(w.done)
	for cmd := range w.cmds {
		start := time.Now()
		resp := response{shard: w.id}
		resp.err = w.apply(cmd, &resp)
		if resp.err == nil {
			resp.results, resp.stats = w.observe()
		}
		resp.elapsed = time.Since(start)
		cmd.resp <- resp
	}
}

func (w *worker) apply(cmd command, resp *response) error {
	if len(cmd.q1) > 0 {
		cs := &model.ChangeSet{Changes: cmd.q1}
		for _, e := range w.q1 {
			if _, err := e.sol.Update(cs); err != nil {
				return fmt.Errorf("shard %d: %s update: %w", w.id, e.sol.Name(), err)
			}
		}
	}
	for _, e := range w.q2 {
		// The ops replay in order. Migrated-in subgraphs are additive, so
		// they batch up with whatever follows them; a retraction (this shard
		// donating a group) first applies the adds queued ahead of it. The
		// last batch carries the routed stream, so a commit without ops is
		// one plain update.
		var adds []model.Change
		for _, op := range cmd.ops {
			if op.retract == nil {
				adds = append(adds, op.synthetic...)
				continue
			}
			if err := w.update(e, adds); err != nil {
				return err
			}
			adds = nil
			start := time.Now()
			if _, err := e.sol.Retract(op.retract); err != nil {
				return fmt.Errorf("shard %d: %s retract: %w", w.id, e.sol.Name(), err)
			}
			resp.repairDur += time.Since(start)
			resp.repaired = true
		}
		q2 := cmd.q2
		if len(adds) > 0 {
			q2 = append(adds, cmd.q2...)
		}
		if err := w.update(e, q2); err != nil {
			return err
		}
	}
	return nil
}

// update applies one batch of Q2 changes to e; an empty batch is a no-op.
func (w *worker) update(e engineInst[q2Engine], changes []model.Change) error {
	if len(changes) == 0 {
		return nil
	}
	if _, err := e.sol.Update(&model.ChangeSet{Changes: changes}); err != nil {
		return fmt.Errorf("shard %d: %s update: %w", w.id, e.sol.Name(), err)
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
	rt.parkedComments = len(rt.router.parked)
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
			rt.last[resp.shard] = resp.results
			rt.lastStats[resp.shard] = resp.stats
		}
		rt.mu.Unlock()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return rt.Results(), nil
}

// Results merges the per-shard last-committed answers into the global
// top-3 per engine key. The Q2-family merge includes the router's parked
// (likeless, zero-scoring) comments as a virtual partition. Must be called
// from the committing goroutine (it reads router state).
func (rt *Runtime) Results() map[string]string {
	parked := rt.router.parkedTopK()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]string)
	merge := func(key string, parked core.Result) {
		rt.merge.Reset()
		rt.merge.Merge(parked)
		for s := 0; s < rt.n; s++ {
			rt.merge.Merge(rt.last[s][key])
		}
		out[key] = rt.merge.Result().String()
	}
	for _, e := range q1Lineup {
		merge(e.key, nil)
	}
	for _, e := range q2Lineup {
		merge(e.key, parked)
	}
	return out
}

// EngineTotals merges every engine's state sizes across shards.
// Partitioned dimensions sum; dimensions replicated into every partition —
// users in Q1 partitions, posts in Q2 partitions — take the maximum, so
// the totals count distinct entities rather than replicas.
func (rt *Runtime) EngineTotals() map[string]core.EngineStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]core.EngineStats)
	for s := 0; s < rt.n; s++ {
		for key, st := range rt.lastStats[s] {
			t := out[key]
			t.Comments += st.Comments
			t.NNZ += st.NNZ
			t.Pending += st.Pending
			if isQ1(key) {
				t.Posts += st.Posts
				t.Users = max(t.Users, st.Users)
			} else {
				t.Posts = max(t.Posts, st.Posts)
				t.Users += st.Users
			}
			out[key] = t
		}
	}
	return out
}

// isQ1 reports whether key names a Q1-family engine of the lineup.
func isQ1(key string) bool {
	for _, e := range q1Lineup {
		if e.key == key {
			return true
		}
	}
	return false
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
