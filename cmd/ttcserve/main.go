// Command ttcserve runs the serving subsystem: it loads (or generates) a
// Social Media dataset, keeps the incremental engines warm, and serves
// concurrent Q1/Q2 reads over HTTP/JSON while ingesting updates through a
// batching write queue. Readers always see the last committed answer.
//
// Usage:
//
//	ttcserve -addr :8080 -sf 4 -threads 2
//	ttcserve -data data/sf8 -replay
//	ttcserve -sf 4 -data-dir /var/lib/ttc -fsync always -snapshot-every 256
//
// With -data-dir every committed batch is written ahead to a checksummed
// log and the model state is snapshotted periodically, so a restart (or
// crash) recovers the full committed history from disk instead of
// replaying the dataset; /healthz answers 503 until that recovery replay
// has committed. A snapshot every -snapshot-every commits lets the log
// drop the sealed segments older snapshots cover, so replay stays bounded
// by that cadence.
// On SIGINT/SIGTERM the server shuts down gracefully: it
// stops accepting requests, drains the write queue, flushes + fsyncs the
// WAL, writes a final snapshot, and exits 0.
//
// Endpoints: GET /query/q1, GET /query/q2 (served by the connected-
// components engine; ?engine=cc is an alias of it), POST /update (bodies
// up to 4 MiB and 4096 changes), GET /stats, GET /healthz (?probe=live). See
// internal/server for the wire format, and cmd/ttcwal for offline
// inspection of a -data-dir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		data    = flag.String("data", "", "dataset directory (from ttcgen); empty generates")
		sf      = flag.Int("sf", 1, "scale factor when generating")
		seed    = flag.Int64("seed", 2018, "generator seed when generating")
		threads = flag.Int("threads", 1, "GraphBLAS thread count")
		batch   = flag.Int("batch", 64, "max changes the writer merges from already-queued requests into one commit")
		queue   = flag.Int("queue", 256, "write queue capacity (requests)")
		shards  = flag.Int("shards", 1, "engine shards (one writer goroutine each)")
		replay  = flag.Bool("replay", false, "replay the dataset's change sets through the write queue at startup")

		dataDir   = flag.String("data-dir", "", "durability directory (write-ahead log + snapshots); empty disables persistence")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always, interval or off")
		fsyncIvl  = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period for -fsync interval")
		snapEvery = flag.Int("snapshot-every", 256, "write a durable snapshot every N committed batches (negative disables periodic snapshots; only meaningful with -data-dir)")
	)
	flag.Parse()
	syncPolicy, err := validateFlags(*addr, *data, *fsync, *sf, *threads, *batch, *queue, *shards, *snapEvery, *fsyncIvl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		DataDir:       *data,
		ScaleFactor:   *sf,
		Seed:          *seed,
		Threads:       *threads,
		MaxBatch:      *batch,
		QueueDepth:    *queue,
		Shards:        *shards,
		PersistDir:    *dataDir,
		Fsync:         syncPolicy,
		FsyncInterval: *fsyncIvl,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(1)
	}

	if srv.Recovered() {
		snap := srv.Snapshot()
		log.Printf("recovered committed state from %s (snapshot seq=%d; WAL tail replays in the background)",
			*dataDir, snap.Seq)
	}

	if *replay {
		switch {
		case srv.Recovered() && (!srv.Ready() || srv.Snapshot().Seq > 0):
			// The recovered history already holds committed batches (or a
			// WAL tail is still replaying); the dataset stream may be among
			// them, and replaying on top would double-apply it.
			log.Printf("-replay skipped: -data-dir already holds committed batches (seq=%d)", srv.Snapshot().Seq)
		case srv.Recovered():
			// Recovery never loads the dataset, so there is no change
			// stream to replay — refusing beats silently serving seq 0.
			fmt.Fprintln(os.Stderr, "ttcserve: -replay is unavailable after recovery from -data-dir"+
				" (the dataset change stream is not loaded); remove the durability directory to start fresh")
			srv.Close()
			os.Exit(1)
		default:
			start := time.Now()
			n := 0
			for k := range srv.Dataset().ChangeSets {
				cs := &srv.Dataset().ChangeSets[k]
				if err := srv.Enqueue(cs.Changes, true); err != nil {
					fmt.Fprintf(os.Stderr, "ttcserve: replay change set %d: %v\n", k, err)
					srv.Close()
					os.Exit(1)
				}
				n += len(cs.Changes)
			}
			log.Printf("replayed %d change sets (%d changes) in %v",
				len(srv.Dataset().ChangeSets), n, time.Since(start))
		}
	}

	snap := srv.Snapshot()
	log.Printf("serving on %s (shards=%d seq=%d q1=%q q2=%q)", *addr, *shards, snap.Seq,
		snap.Results[server.EngineQ1], snap.Results[server.EngineQ2])

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("signal received; shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		fmt.Fprintln(os.Stderr, "ttcserve:", err)
		os.Exit(1)
	}
	// Graceful shutdown: the listener is closed; drain the batcher so every
	// accepted update commits, flush + fsync the WAL, and write the final
	// snapshot so the next start replays nothing.
	srv.Close()
	if *dataDir != "" {
		log.Printf("shutdown complete: queue drained, WAL flushed, final snapshot written to %s", *dataDir)
	} else {
		log.Printf("shutdown complete: queue drained")
	}
}

// Connection timeouts: a client has readHeaderTimeout to send its request
// headers, and a keep-alive connection closes after idleTimeout without a
// request. There is no write timeout, because a waited update blocks until
// its batch commits.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the HTTP server for handler at addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// validateFlags rejects nonsense flag combinations with exit status 2
// before any work happens, and resolves the fsync policy name.
func validateFlags(addr, data, fsync string, sf, threads, batch, queue, shards, snapEvery int, fsyncIvl time.Duration) (wal.SyncPolicy, error) {
	if addr == "" {
		return 0, errors.New("-addr must not be empty")
	}
	if data == "" && sf < 1 {
		return 0, fmt.Errorf("-sf must be >= 1 (got %d)", sf)
	}
	if threads < 1 {
		return 0, fmt.Errorf("-threads must be >= 1 (got %d)", threads)
	}
	if batch < 1 {
		return 0, fmt.Errorf("-batch must be >= 1 (got %d)", batch)
	}
	if queue < 1 {
		return 0, fmt.Errorf("-queue must be >= 1 (got %d)", queue)
	}
	if shards < 1 {
		return 0, fmt.Errorf("-shards must be >= 1 (got %d)", shards)
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return 0, fmt.Errorf("-fsync: %w", err)
	}
	if fsyncIvl <= 0 {
		return 0, fmt.Errorf("-fsync-interval must be positive (got %v)", fsyncIvl)
	}
	if snapEvery == 0 {
		return 0, errors.New("-snapshot-every must be nonzero (negative disables periodic snapshots)")
	}
	return policy, nil
}
