// Package server turns the paper's continuous-reevaluation loop into a
// long-lived serving subsystem: it loads a Social Media dataset once, keeps
// the incremental engines (GraphBLAS Q1 and the connected-components Q2
// extension) warm behind an N-way sharded runtime (internal/shard), ingests
// comment/like/friendship updates through a batching write queue, and
// serves concurrent Q1/Q2 reads over HTTP/JSON with snapshot isolation —
// readers always observe the result of the last committed batch, never a
// mid-update state.
//
// Write path: Enqueue → buffered queue → the writer goroutine
// group-commits: as soon as it is idle it takes every request already
// queued (up to MaxBatch changes, never splitting a request) into one
// batch, validates each request through the integrity checker
// (model.Checker), appends the merged change set to the WAL when
// persistence is on (fsynced under the default policy), then commits it
// through the sharded runtime — one writer goroutine per shard applies its
// slice behind a commit barrier, so the new Snapshot is published only
// once the batch is in the WAL and visible on every shard, and wait=1
// keeps meaning "durable and globally visible".
// Read path: an atomic pointer load merging nothing at all —
// per-shard answers were merged at commit time.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/grb"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Engine keys served by the query endpoints.
const (
	EngineQ1 = "q1" // GraphBLAS Incremental, Q1
	EngineQ2 = "q2" // incremental connected components, Q2
)

// Config parameterizes a Server.
type Config struct {
	// Dataset serves this dataset directly (tests). When nil, DataDir is
	// read if set, otherwise a dataset is generated from ScaleFactor/Seed.
	Dataset *model.Dataset
	// DataDir is a CSV dataset directory written by ttcgen.
	DataDir string
	// ScaleFactor and Seed parameterize generation when no dataset or
	// directory is given. ScaleFactor defaults to 1, Seed to 2018.
	ScaleFactor int
	Seed        int64

	// Threads configures grb.SetThreads for the engines. Default 1.
	Threads int
	// MaxBatch caps the number of changes the writer merges into one
	// commit from the requests already queued when it turns to the next
	// batch; it never waits for more. A single request is never split, so
	// one larger than MaxBatch commits alone. Default 64.
	MaxBatch int
	// QueueDepth is the write queue's buffered capacity in requests.
	// Default 256.
	QueueDepth int
	// Shards is the number of engine shards (one writer goroutine each;
	// see internal/shard for the partitioning). Default 1.
	Shards int

	// PersistDir enables durability: committed batches are appended to a
	// write-ahead log under this directory before their waiters are
	// released, and the model state is snapshotted periodically, so a
	// restarted server recovers its committed state from disk instead of
	// replaying the dataset (see internal/wal). When the directory holds a
	// valid snapshot it takes precedence over Dataset/DataDir/generation.
	// Empty disables persistence.
	PersistDir string
	// Fsync is the WAL append fsync policy (wal.SyncAlways is the zero
	// value and the default: an acknowledged batch is crash-durable).
	Fsync wal.SyncPolicy
	// FsyncInterval is the flush period under wal.SyncInterval.
	// Default 100ms.
	FsyncInterval time.Duration
	// SnapshotEvery writes a durable snapshot every N committed batches
	// (bounding recovery replay to N batches). Default 256; negative
	// disables periodic snapshots (Close still writes a final one).
	SnapshotEvery int

	// Test hooks (same package only). segmentBytes overrides the WAL's
	// segment rotation threshold, so tests can spread a short history over
	// many sealed segments.
	// snapshotChunkBytes overrides the streaming encoder's chunk size and
	// snapshotChunkHook observes every flushed chunk, for pinning down
	// encode/commit interleavings. commitHook runs at the start of every
	// live commit with the batch the writer took, so a test can hold the
	// writer inside a commit while the queue fills.
	segmentBytes       int64
	snapshotChunkBytes int
	snapshotChunkHook  func(written int)
	commitHook         func(batch []updateReq)
}

func (c Config) withDefaults() Config {
	if c.ScaleFactor == 0 {
		c.ScaleFactor = 1
	}
	if c.Seed == 0 {
		c.Seed = 2018
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Validate rejects nonsense configurations (zero values mean "use the
// default" and are fine); cmd/ttcserve maps the error to exit status 2.
func (c Config) Validate() error {
	if c.Dataset == nil && c.DataDir == "" && c.ScaleFactor < 0 {
		return fmt.Errorf("scale factor must be >= 1 (got %d)", c.ScaleFactor)
	}
	if c.Threads < 0 {
		return fmt.Errorf("threads must be >= 1 (got %d)", c.Threads)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("max batch must be >= 1 (got %d)", c.MaxBatch)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("queue depth must be >= 1 (got %d)", c.QueueDepth)
	}
	if c.Shards < 0 {
		return fmt.Errorf("shards must be >= 1 (got %d)", c.Shards)
	}
	if c.FsyncInterval < 0 {
		return fmt.Errorf("fsync interval must be positive (got %v)", c.FsyncInterval)
	}
	return nil
}

// phaseStats is the serving-side aggregate of the TTC phase latencies:
// the one-shot Load and Initial phases, plus a running view of the
// update+reevaluation phase across all committed batches.
type phaseStats struct {
	Load    time.Duration
	Initial time.Duration

	UpdateCount int
	UpdateTotal time.Duration
	UpdateLast  time.Duration
}

// recoveryStats records what startup recovery did: where the snapshot was,
// how much WAL tail was replayed, and whether a torn tail was truncated.
type recoveryStats struct {
	SnapshotSeq     int
	ReplayedBatches int
	ReplayedChanges int
	TruncatedBytes  int64
	Duration        time.Duration
}

// Server is the serving subsystem. Create with New, serve via Handler,
// stop with Close.
type Server struct {
	cfg     Config
	dataset *model.Dataset

	// rt owns the engines: one partition and one writer goroutine per
	// shard. Only the batching goroutine commits through it; the stats
	// accessors are safe for concurrent readers.
	rt *shard.Runtime

	snap atomic.Pointer[Snapshot]

	updates    chan updateReq
	writerDone chan struct{}

	// wal is the durability subsystem (nil when Config.PersistDir is
	// empty): every committed batch is appended to it before the commit's
	// waiters are released, and curr is periodically snapshotted through
	// it. curr is the materialized model state: the integrity checker's
	// State, which the writer's admission (check.ApplyAll) keeps current,
	// so a commit pays O(|batch|) for it, removals included.
	wal  *wal.Log
	curr *model.Snapshot
	// recovered reports that startup state came from a durable snapshot
	// rather than the dataset.
	recovered bool
	// ready flips to true once startup WAL replay (if any) has committed;
	// /healthz serves 503 until then.
	ready   atomic.Bool
	durOnce sync.Once // final snapshot + WAL close (Close and crash paths)

	// Streaming-snapshot state. snapInProgress is set for the lifetime of a
	// background encode (and the final shutdown snapshot) — /stats and
	// /healthz report it so orchestrators can see a snapshot-draining
	// server. snapAbort tells the encoder's next chunk to abandon the write
	// (crash simulation). snapDone and cowPending are writer-owned:
	// snapDone is the in-flight encode's completion channel, cowPending
	// marks that the encoder's view still shares the edge arrays with curr,
	// so a request carrying a removal must detach (clone) them before the
	// checker admits it.
	snapInProgress atomic.Bool
	snapAbort      atomic.Bool
	snapDone       chan struct{}
	cowPending     bool

	mu      sync.Mutex // guards closing, broken, phases
	closing bool
	// producers counts Enqueue calls between their closing-check and their
	// channel send, so Close can wait for in-flight sends before closing
	// the queue. The send itself happens outside mu: a producer blocked on
	// a full queue must not hold the lock the writer needs to commit.
	producers sync.WaitGroup
	// broken records the first engine failure; once set the server keeps
	// serving the last committed snapshot but rejects further writes.
	broken error
	// phases records per-phase latencies following the harness.Measurement
	// phase breakdown (Load, Initial, then Update+Reevaluation per
	// committed batch), aggregated to O(1) state so a long-lived server
	// never grows with commit count.
	phases phaseStats
	// recovery, replayDone/replayTotal, lastSnap (seq of the last durable
	// snapshot this process wrote — updated by the background encoder, so
	// mu-guarded), lastSnapDur and snapErrs are the durability bookkeeping
	// /stats and /healthz report (guarded by mu).
	recovery    recoveryStats
	replayDone  int
	replayTotal int
	lastSnap    int
	lastSnapDur time.Duration
	snapErrs    int
	// Streaming-snapshot counters (guarded by mu): lastSnapStall/
	// maxSnapStall record how long the writer was actually paused on
	// snapshot work (the O(1) view handoff or a copy-on-write clone);
	// snapStreams/snapSkips count background encodes started and cadence
	// points skipped because one was still in flight; cowClones counts
	// edge-array detaches.
	lastSnapStall time.Duration
	maxSnapStall  time.Duration
	snapStreams   int
	snapSkips     int
	cowClones     int
}

// New builds the serving state, warms every engine through its Load and
// Initial phases, publishes the base snapshot, and starts the writer.
//
// Without persistence the base state is the configured dataset (loaded or
// generated). With Config.PersistDir the durability directory decides: a
// valid durable snapshot there becomes the base state (the dataset is not
// touched — that is the point), and any WAL batches committed after it are
// replayed through the engines in the background before the server reports
// ready; a fresh directory starts from the dataset and seeds it with the
// seq-0 snapshot. A base state that violates referential integrity is an
// error wrapping model.ErrIntegrity.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var (
		wlog *wal.Log
		rec  wal.RecoveryInfo
		err  error
	)
	if cfg.PersistDir != "" {
		wlog, rec, err = wal.Open(wal.Options{
			Dir:                cfg.PersistDir,
			Sync:               cfg.Fsync,
			SyncInterval:       cfg.FsyncInterval,
			SegmentBytes:       cfg.segmentBytes,
			SnapshotChunkBytes: cfg.snapshotChunkBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open wal: %w", err)
		}
	}

	// Until the Server owns it, every error path must release the log
	// (its active-segment fd and, under SyncInterval, the flush goroutine).
	closeWAL := func() {
		if wlog != nil {
			wlog.Close()
		}
	}

	var d *model.Dataset
	if rec.HasSnapshot {
		d = &model.Dataset{Snapshot: rec.Snapshot}
	} else {
		d = cfg.Dataset
		if d == nil {
			if cfg.DataDir != "" {
				d, err = model.ReadDataset(cfg.DataDir)
				if err != nil {
					closeWAL()
					return nil, fmt.Errorf("server: load dataset: %w", err)
				}
			} else {
				d = datagen.Generate(datagen.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
			}
		}
	}

	// The base state must itself satisfy the integrity rules every update
	// is admitted under; the checker validates it as it loads.
	check, err := model.NewChecker(d.Snapshot)
	if err != nil {
		closeWAL()
		return nil, fmt.Errorf("server: base state: %w", err)
	}

	grb.SetThreads(cfg.Threads)
	rt, err := shard.New(cfg.Shards, d.Snapshot)
	if err != nil {
		closeWAL()
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		dataset:    d,
		rt:         rt,
		updates:    make(chan updateReq, cfg.QueueDepth),
		writerDone: make(chan struct{}),
		wal:        wlog,
		recovered:  rec.HasSnapshot,
	}
	s.phases.Load = rt.LoadDuration()
	s.phases.Initial = rt.InitialDuration()
	s.curr = check.State()

	baseSeq, baseChanges := 0, 0
	if s.wal != nil {
		s.lastSnap = -1
		if rec.HasSnapshot {
			baseSeq = int(rec.SnapshotSeq)
			baseChanges = int(rec.SnapshotMeta)
			s.lastSnap = baseSeq
		}
		s.recovery = recoveryStats{
			SnapshotSeq:    baseSeq,
			TruncatedBytes: rec.TruncatedBytes,
		}
		s.replayTotal = len(rec.Batches)
	}

	s.snap.Store(&Snapshot{
		Seq:     baseSeq,
		Changes: baseChanges,
		Results: rt.Results(),
		Engines: rt.EngineTotals(),
		At:      time.Now(),
	})

	if s.wal != nil && !rec.HasSnapshot {
		// Seed a fresh durability directory with the base state so recovery
		// never needs the dataset again.
		if err := s.wal.WriteSnapshotStream(uint64(baseSeq), uint64(baseChanges), s.curr, nil); err != nil {
			s.rt.Close()
			s.wal.Close()
			return nil, fmt.Errorf("server: seed snapshot: %w", err)
		}
		s.lastSnap = baseSeq
	}

	// Readiness: immediate unless there is a WAL tail to replay, in which
	// case the writer flips it after the replay commits.
	s.ready.Store(len(rec.Batches) == 0)
	go s.writer(check, rec.Batches)
	return s, nil
}

// Dataset exposes the served dataset (its change sets are the natural
// replay stream for warming or testing).
func (s *Server) Dataset() *model.Dataset { return s.dataset }

// Snapshot returns the last committed state. It never blocks on writers.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Enqueue submits one update request (all its changes commit atomically, in
// one batch). With wait=true it blocks until the request's batch has been
// committed and published, returning any validation or engine error; with
// wait=false it returns once the request is queued.
func (s *Server) Enqueue(changes []model.Change, wait bool) error {
	if len(changes) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.broken; err != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrBroken, err)
	}
	s.producers.Add(1)
	s.mu.Unlock()

	req := updateReq{changes: changes}
	if wait {
		req.done = make(chan error, 1)
	}
	// The send can block on a full queue; it must happen outside mu, which
	// the writer needs to commit (and hence to drain the queue). Close
	// cannot close the channel under us: it waits for producers first, and
	// the writer keeps draining until the channel is closed.
	s.updates <- req
	s.producers.Done()
	if wait {
		return <-req.done
	}
	return nil
}

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("server: closed")

// ErrBroken wraps the first engine failure; the server keeps serving reads
// but refuses writes once its engines may have diverged.
var ErrBroken = errors.New("server: engines failed")

// QueueDepth reports the number of update requests waiting in the queue.
func (s *Server) QueueDepth() int { return len(s.updates) }

// Close stops the batching goroutine after it drains the queue, then stops
// the per-shard writers. Pending waiters are answered (committed requests
// with nil, the rest with an error); subsequent Enqueue calls return
// ErrClosed.
//
// Shutdown-race audit (see TestCloseDuringWaitedEnqueue): a waited Enqueue
// concurrently with Close can never hang. Enqueue registers in producers
// under mu before sending, so Close's producers.Wait() delays the channel
// close past every in-flight send; the batching goroutine keeps draining
// until the channel is closed, so every sent request reaches commit, and
// commit answers every waiter exactly once (nil after publication,
// ErrRejected/ErrBroken otherwise). An Enqueue that arrives after Close
// flipped closing fails fast with ErrClosed and never touches the queue.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		<-s.writerDone
		s.rt.Close()
		s.closeDurable(true)
		return
	}
	s.closing = true
	s.mu.Unlock()
	// New Enqueue calls now fail fast; wait for in-flight sends, then close
	// the queue so the batching goroutine drains it and exits; only then is
	// the shard runtime (which it commits through) shut down.
	s.producers.Wait()
	close(s.updates)
	<-s.writerDone
	s.rt.Close()
	s.closeDurable(true)
}

// closeDurable finishes the durability subsystem exactly once: a graceful
// close drains any in-flight background encode, writes a final snapshot
// (so the next start replays nothing) and fsyncs the WAL; an abrupt one
// aborts the encode at its next chunk (dropping the temp file, exactly as
// a crash would) and drops the file handles. The final snapshot is skipped
// when the engines are broken — the materialized state may then be ahead
// of the published seq, and the WAL alone is the truth.
//
// Both paths run after the writer goroutine has exited (Close/crash wait
// on writerDone first), so reading the writer-owned snapDone handle and
// passing s.curr to a synchronous encode are race-free.
func (s *Server) closeDurable(graceful bool) {
	if s.wal == nil {
		return
	}
	s.durOnce.Do(func() {
		if graceful {
			s.waitSnapshot()
			if s.brokenErr() == nil && s.ready.Load() {
				s.snapshotFinal(s.snap.Load().Seq)
			}
			_ = s.wal.Close()
		} else {
			s.snapAbort.Store(true)
			s.waitSnapshot()
			s.wal.Abandon()
		}
	})
}

// waitSnapshot blocks until the in-flight background snapshot encode (if
// any) has finished or aborted.
func (s *Server) waitSnapshot() {
	if s.snapDone != nil {
		<-s.snapDone
	}
}

// crash simulates an abrupt process death, for recovery tests: the writer
// and shard runtime stop, but no final snapshot is written and the WAL is
// abandoned without a flush — the durability directory is left exactly as
// a kill -9 would leave it. (Batches already queued still drain through
// the writer, which only makes the pre-crash workload longer.)
func (s *Server) crash() {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return
	}
	s.closing = true
	s.mu.Unlock()
	s.producers.Wait()
	close(s.updates)
	<-s.writerDone
	s.rt.Close()
	s.closeDurable(false)
}

// Ready reports whether startup WAL replay (if any) has completed and the
// served snapshots reflect every recovered commit. /healthz maps false to
// 503.
func (s *Server) Ready() bool { return s.ready.Load() }

// Recovered reports whether the base state came from a durable snapshot in
// Config.PersistDir rather than from the dataset.
func (s *Server) Recovered() bool { return s.recovered }

// Handler returns the HTTP API (see handlers.go for routes).
func (s *Server) Handler() http.Handler { return s.routes() }

func (s *Server) setBroken(err error) {
	s.mu.Lock()
	if s.broken == nil {
		s.broken = err
	}
	s.mu.Unlock()
}

func (s *Server) brokenErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}
