package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
)

// ErrRejected marks an update that failed referential-integrity validation
// and was not applied to any engine.
var ErrRejected = errors.New("server: update rejected")

// updateReq is one Enqueue call: its changes commit atomically in a single
// batch (never split across commits). done, when non-nil, receives the
// request's outcome after its batch is published.
type updateReq struct {
	changes []model.Change
	done    chan error
}

func (r *updateReq) finish(err error) {
	if r.done != nil {
		r.done <- err
	}
}

// writer is the single goroutine that owns the engines, the integrity
// checker and the materialized model state. It first replays the recovered
// WAL tail (if any) and flips the server ready, then group-commits: it
// takes the first queued request, adds every request already waiting in
// the queue without blocking, stops before the one that would take the
// batch past MaxBatch changes (that request opens the next batch), and
// commits at once. Requests that arrive while a commit and its fsync run
// make up the next batch, so batches grow with load and an idle server
// commits a lone request immediately. It exits when Close closes the
// queue, after draining it. Requests enqueued during replay simply wait in
// the queue: they commit (and their wait=1 returns) only after every
// recovered batch is visible, preserving commit order across the restart.
func (s *Server) writer(check *model.Checker, replay []wal.Batch) {
	defer close(s.writerDone)
	if len(replay) > 0 {
		if s.replayWAL(check, replay) {
			s.ready.Store(true)
		}
	}
	var (
		carry updateReq // taken from the queue; opens the next batch
		held  bool
	)
	for {
		first := carry
		if !held {
			var ok bool
			if first, ok = <-s.updates; !ok {
				return
			}
		}
		held = false
		batch := []updateReq{first}
		n := len(first.changes)
	fill:
		for n < s.cfg.MaxBatch {
			select {
			case req, ok := <-s.updates:
				if !ok {
					break fill // queue closed: commit what we have; the next receive exits
				}
				if n+len(req.changes) > s.cfg.MaxBatch {
					carry, held = req, true // never split a request
					break fill
				}
				batch = append(batch, req)
				n += len(req.changes)
			default:
				break fill // nothing else queued: commit now
			}
		}
		s.commit(check, batch)
	}
}

// commit validates each request against the integrity checker, makes the
// merged change set of the accepted requests durable (WAL append, honoring
// the fsync policy), applies and publishes it (applyAndPublish), and
// answers the waiters. Rejected requests get their error and do not reach
// any engine; accepted requests only get nil after their batch is in the
// WAL *and* visible to readers on all shards, so a waited update survives
// a crash the instant /update returns.
func (s *Server) commit(check *model.Checker, batch []updateReq) {
	if h := s.cfg.commitHook; h != nil {
		h(batch)
	}
	if err := s.brokenErr(); err != nil {
		for i := range batch {
			batch[i].finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
		return
	}

	cs := &model.ChangeSet{}
	accepted := make([]*updateReq, 0, len(batch))
	for i := range batch {
		req := &batch[i]
		if err := s.admit(check, req.changes); err != nil {
			req.finish(fmt.Errorf("%w: %w", ErrRejected, err))
			continue
		}
		cs.Changes = append(cs.Changes, req.changes...)
		accepted = append(accepted, req)
	}
	if len(cs.Changes) == 0 {
		return
	}

	fail := func(err error) {
		s.setBroken(err)
		for _, req := range accepted {
			req.finish(fmt.Errorf("%w: %w", ErrBroken, err))
		}
	}

	// Canonicalize the merged batch (friendship endpoints ordered) so the
	// WAL stores — and every engine sees — the change-key-normalized form;
	// cs.Changes is the writer's own copy, never a caller's slice.
	cs.Normalize()

	seq := s.snap.Load().Seq + 1
	if s.wal != nil {
		// Write-ahead: the batch must be durable before any engine applies
		// it. A batch in the WAL but not yet applied is exactly what
		// startup replay redoes, so a crash at any point after this line
		// recovers the batch.
		if err := s.wal.Append(uint64(seq), cs.Changes); err != nil {
			fail(fmt.Errorf("wal append: %w", err))
			return
		}
	}
	if err := s.applyAndPublish(seq, cs); err != nil {
		// Validation should make this unreachable; if it happens some
		// shards may have applied the batch while another failed, so stop
		// accepting writes but keep serving the last committed snapshot.
		fail(fmt.Errorf("commit: %w", err))
		return
	}

	for _, req := range accepted {
		req.finish(nil)
	}

	// Snapshot cadence: every SnapshotEvery commits, after the waiters are
	// answered so snapshot encoding never sits on a commit ack.
	if s.wal != nil && s.cfg.SnapshotEvery > 0 && seq%s.cfg.SnapshotEvery == 0 {
		s.snapshotDurable(seq)
	}
}

// replayWAL redoes the recovered log tail through the engines before any
// queued request commits. Returns false (leaving the server broken and not
// ready) if a recovered batch fails — that means the durability directory
// disagrees with the base snapshot, and serving writes on top would
// diverge. On success it writes a fresh durable snapshot so the next
// restart replays nothing.
func (s *Server) replayWAL(check *model.Checker, batches []wal.Batch) bool {
	start := time.Now()
	replayed := 0
	for i, b := range batches {
		s.mu.Lock()
		s.replayDone = i
		s.mu.Unlock()
		replayed += len(b.Changes)
		if err := s.admit(check, b.Changes); err != nil {
			s.setBroken(fmt.Errorf("wal replay: batch seq %d: %w", b.Seq, err))
			return false
		}
		if err := s.applyAndPublish(int(b.Seq), &model.ChangeSet{Changes: b.Changes}); err != nil {
			s.setBroken(fmt.Errorf("wal replay: commit seq %d: %w", b.Seq, err))
			return false
		}
	}
	last := int(batches[len(batches)-1].Seq)
	s.snapshotDurable(last)
	s.mu.Lock()
	s.replayDone = len(batches)
	s.recovery.ReplayedBatches = len(batches)
	s.recovery.ReplayedChanges = replayed
	s.recovery.Duration = time.Since(start)
	s.mu.Unlock()
	return true
}

// applyAndPublish is the one commit step of live commits and startup
// replay alike. It commits the batch through the sharded runtime — whose
// barrier returns only once every shard has applied its slice — and
// publishes the new Snapshot at seq. The batch must already have been
// admitted (admit), which also folded it into curr, and, when persistent,
// be in the WAL. An error means the shards may have diverged.
func (s *Server) applyAndPublish(seq int, cs *model.ChangeSet) error {
	start := time.Now()
	results, err := s.rt.Commit(cs)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	prev := s.snap.Load()
	s.snap.Store(&Snapshot{
		Seq:      seq,
		Changes:  prev.Changes + len(cs.Changes),
		Inserts:  prev.Inserts + cs.InsertCount(),
		Removals: prev.Removals + cs.RemovalCount(),
		Results:  results,
		Engines:  s.rt.EngineTotals(),
		At:       time.Now(),
	})

	s.mu.Lock()
	s.phases.UpdateCount++
	s.phases.UpdateTotal += elapsed
	s.phases.UpdateLast = elapsed
	s.mu.Unlock()
	return nil
}

// admit validates one request through the integrity checker, which on
// success also folds it into curr (the checker's State). This is the
// copy-on-write moment of the streaming snapshot design: while a
// background encode holds a view of curr's arrays, inserts are harmless
// (they append at or past the view's clamped length, or reallocate), but a
// removal moves the last edge into the freed slot, which can lie below
// that length, and a rejected request's rollback can move edges the same
// way. So the first request carrying a removal during an in-flight encode
// detaches fresh Friendships/Likes arrays before the checker sees it,
// accepted or not. The pause is one memcpy of the edge arrays, paid at most once per
// snapshot and only on removal traffic, instead of a full encode+fsync
// stall on every snapshot.
func (s *Server) admit(check *model.Checker, changes []model.Change) error {
	if s.cowPending && s.snapInProgress.Load() {
		if cs := (model.ChangeSet{Changes: changes}); cs.HasRemovals() {
			start := time.Now()
			s.curr.Friendships = append([]model.Friendship(nil), s.curr.Friendships...)
			s.curr.Likes = append([]model.Like(nil), s.curr.Likes...)
			s.cowPending = false
			s.noteSnapStall(time.Since(start))
			s.mu.Lock()
			s.cowClones++
			s.mu.Unlock()
		}
	}
	return check.ApplyAll(changes)
}

// snapshotView is the writer's O(1) snapshot handoff: the five slice
// headers clamped to their current length (full slice expressions, so the
// view also cannot see capacity beyond it). The encoder iterates the view;
// the writer keeps committing into curr, with admit detaching the arrays a
// removal would mutate in place.
func snapshotView(s *model.Snapshot) *model.Snapshot {
	return &model.Snapshot{
		Posts:       s.Posts[:len(s.Posts):len(s.Posts)],
		Comments:    s.Comments[:len(s.Comments):len(s.Comments)],
		Users:       s.Users[:len(s.Users):len(s.Users)],
		Friendships: s.Friendships[:len(s.Friendships):len(s.Friendships)],
		Likes:       s.Likes[:len(s.Likes):len(s.Likes)],
	}
}

// noteSnapStall records one writer pause attributable to snapshot work —
// the stat BenchmarkSnapshotStall and /stats defend: with streaming
// snapshots it should stay at microseconds (handoff) to one edge-array
// memcpy (COW), never a full encode.
func (s *Server) noteSnapStall(d time.Duration) {
	s.mu.Lock()
	s.lastSnapStall = d
	if d > s.maxSnapStall {
		s.maxSnapStall = d
	}
	s.mu.Unlock()
}

// snapshotDurable persists the materialized model state at seq. A failure
// is not fatal — the WAL still holds every commit since the last good
// snapshot, so durability degrades to a longer replay — but it is counted
// and surfaced in /stats.
//
// Called by the writer goroutine, which only pays the O(1) copy-on-write
// handoff: a background goroutine streams the view to disk chunk by chunk
// while the writer returns to draining the queue.
func (s *Server) snapshotDurable(seq int) {
	s.mu.Lock()
	last := s.lastSnap
	s.mu.Unlock()
	if seq == last {
		return
	}
	if s.snapInProgress.Load() {
		// One encode in flight at a time: a skipped cadence point only
		// means the WAL replays a little longer, and the next trigger
		// catches up.
		s.mu.Lock()
		s.snapSkips++
		s.mu.Unlock()
		return
	}
	start := time.Now()
	view := snapshotView(s.curr)
	s.cowPending = true
	s.snapInProgress.Store(true)
	done := make(chan struct{})
	s.snapDone = done
	meta := uint64(s.snap.Load().Changes)
	go func() {
		defer close(done)
		encStart := time.Now()
		err := s.wal.WriteSnapshotStream(uint64(seq), meta, view, s.streamChunk)
		s.finishSnapshot(seq, encStart, err)
		s.snapInProgress.Store(false)
	}()
	s.noteSnapStall(time.Since(start))
}

// finishSnapshot records one snapshot attempt's outcome. Callers clear
// snapInProgress only *after* this returns: single-flighting means a newer
// encode cannot start — and so cannot write its bookkeeping — until the
// older one's has landed, which keeps lastSnap monotone.
func (s *Server) finishSnapshot(seq int, start time.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		// Counted only on success: streamedSnapshots is the "streaming
		// works" probe and must stay zero when no encode ever lands.
		s.snapStreams++
		s.lastSnap = seq
		s.lastSnapDur = time.Since(start)
	case errors.Is(err, wal.ErrSnapshotAborted):
		// Shutdown cancellation, not a failure.
	default:
		s.snapErrs++
	}
}

// streamChunk is the background encoder's per-chunk callback: it honors
// shutdown aborts (crash simulation drops the temp file exactly as a real
// crash would) and the test hook.
func (s *Server) streamChunk(written int) error {
	if s.snapAbort.Load() {
		return wal.ErrSnapshotAborted
	}
	if h := s.cfg.snapshotChunkHook; h != nil {
		h(written)
	}
	return nil
}

// snapshotFinal writes the shutdown snapshot synchronously — a draining
// server has nothing better to do. snapInProgress stays set for the
// duration so /healthz reports the final-snapshot drain instead of looking
// idle and healthy.
func (s *Server) snapshotFinal(seq int) {
	s.mu.Lock()
	last := s.lastSnap
	s.mu.Unlock()
	if seq == last {
		return
	}
	s.snapInProgress.Store(true)
	start := time.Now()
	err := s.wal.WriteSnapshotStream(uint64(seq), uint64(s.snap.Load().Changes), s.curr, s.streamChunk)
	s.finishSnapshot(seq, start, err)
	s.snapInProgress.Store(false)
}
