package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans of one change set share Set;
// Parent indexes the span that made the call (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Set    int    `json:"set"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, set, parent int) int {
	t.spans = append(t.spans, span{Name: name, Set: set, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// call runs f inside a span.
func (t *tracer) call(name string, set, parent int, f func()) {
	i := t.begin(name, set, parent)
	f()
	t.end(i)
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// durations returns the durations of every span named name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, us(t.spans[i].dur()))
		}
	}
	return out
}

// spanSummary is one span name's totals in the written trace.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
	P50Us   float64 `json:"p50Us"`
	P99Us   float64 `json:"p99Us"`
}

// write saves every span and a per-name summary whose self time is the
// span's duration minus its children's (children never overlap: each pass
// calls its layers one after another).
func (t *tracer) write(path string) error {
	child := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	byName := map[string]*spanSummary{}
	var names []string
	for i := range t.spans {
		s := &t.spans[i]
		sum, ok := byName[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalMs += ms(s.dur())
		sum.SelfMs += ms(s.dur() - child[i])
	}
	summary := make([]spanSummary, 0, len(names))
	for _, n := range names {
		sum := byName[n]
		d := t.durations(n)
		sum.P50Us, sum.P99Us = percentile(d, 0.5), percentile(d, 0.99)
		summary = append(summary, *sum)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"summary": summary, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceResult is the traced run's per-layer metrics.
type traceResult struct {
	correct bool
	metrics map[string]metric
}

// traceRun replays the stream's first traceSets sets, one set per commit,
// through three in-process passes: the commit pipeline in server.commit's
// order (ChangeSet.Normalize, wal.Log.Append, Snapshot.Apply,
// shard.Runtime.Commit, EngineTotals, and WriteSnapshotStream every 256
// commits), the three single-partition engines, and a server reached
// through its HTTP handler. The write-ahead logs live under dir. The spans
// are written to tracePath.
func traceRun(w *workload, st *stream, dir, tracePath string) (*traceResult, error) {
	n := min(traceSets, len(st.sets))
	sets := make([]model.ChangeSet, n)
	for i := range sets {
		sets[i].Changes = append([]model.Change(nil), st.sets[i].Changes...)
	}
	elements := float64(st.initial.NodeCount() + st.initial.EdgeCount())
	t := &tracer{t0: time.Now()}
	m := map[string]metric{}

	pipeResults, err := tracePipeline(t, st.initial, sets, filepath.Join(dir, "trace-wal"), elements, m)
	if err != nil {
		return nil, err
	}
	if err := traceEngines(t, st.initial, sets); err != nil {
		return nil, err
	}
	served, err := traceServer(t, w, st, n, filepath.Join(dir, "trace-server"), m)
	if err != nil {
		return nil, err
	}
	correct := true
	for k, want := range pipeResults {
		if served[k] != want {
			log.Printf("trace: server pass serves %s %q, pipeline pass committed %q", k, served[k], want)
			correct = false
		}
	}

	p50 := func(name string) float64 { return percentile(t.durations(name), 0.5) }
	p99 := func(name string) float64 { return percentile(t.durations(name), 0.99) }
	var insertApply, removalApply []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "model.apply" {
			if sets[s.Set].HasRemovals() {
				removalApply = append(removalApply, us(s.dur()))
			} else {
				insertApply = append(insertApply, us(s.dur()))
			}
		}
	}
	// overhead: the server's update minus the same set's pipeline commit
	// (flush wait, validation and publish).
	update := t.durations("server.update")
	commit := t.durations("pipeline.commit")
	overhead := make([]float64, len(update))
	for i := range update {
		overhead[i] = update[i] - commit[i]
	}
	for k, v := range map[string]metric{
		"server.update_p50_us":       {p50("server.update"), "us"},
		"server.update_p99_us":       {p99("server.update"), "us"},
		"server.overhead_p50_us":     {percentile(overhead, 0.5), "us"},
		"server.read_p50_us":         {p50("server.read"), "us"},
		"server.read_p99_us":         {p99("server.read"), "us"},
		"pipeline.commit_p50_us":     {p50("pipeline.commit"), "us"},
		"model.normalize_p50_us":     {p50("model.normalize"), "us"},
		"model.apply_insert_p50_us":  {percentile(insertApply, 0.5), "us"},
		"model.apply_removal_p50_us": {percentile(removalApply, 0.5), "us"},
		"model.apply_removal_p99_us": {percentile(removalApply, 0.99), "us"},
		"wal.append_p50_us":          {p50("wal.append"), "us"},
		"wal.append_p99_us":          {p99("wal.append"), "us"},
		"wal.snapshot_ms":            {p50("wal.snapshot") / 1e3, "ms"},
		"shard.commit_p50_us":        {p50("shard.commit"), "us"},
		"shard.commit_p99_us":        {p99("shard.commit"), "us"},
		"shard.engine_totals_p50_us": {p50("shard.engine_totals"), "us"},
		"core.q1.update_p50_us":      {p50("core.q1.update"), "us"},
		"core.q2.update_p50_us":      {p50("core.q2.update"), "us"},
		"core.q2.update_p99_us":      {p99("core.q2.update"), "us"},
		"core.q2cc.update_p50_us":    {p50("core.q2cc.update"), "us"},
		"core.q2cc.update_p99_us":    {p99("core.q2cc.update"), "us"},
	} {
		m[k] = v
	}
	if err := t.write(tracePath); err != nil {
		return nil, err
	}
	log.Printf("trace: %d spans over %d sets written to %s", len(t.spans), n, tracePath)
	return &traceResult{correct: correct, metrics: m}, nil
}

// snapshotEvery is the server's default snapshot cadence in commits.
const snapshotEvery = 256

// tracePipeline is the commit pipeline pass. It records the shard and
// model layer counts and memory into m and returns the final results.
func tracePipeline(t *tracer, initial *model.Snapshot, sets []model.ChangeSet, walDir string, elements float64, m map[string]metric) (map[string]string, error) {
	h0 := heapAlloc()
	curr := initial.Clone()
	m["model.heap_bytes_per_element"] = metric{(heapAlloc() - h0) / elements, "B"}

	wlog, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer wlog.Close()
	h0 = heapAlloc()
	start := time.Now()
	rt, err := shard.New(2, initial)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	m["shard.load_s"] = metric{time.Since(start).Seconds(), "s"}
	m["shard.heap_bytes_per_element"] = metric{(heapAlloc() - h0) / elements, "B"}

	var results map[string]string
	var failure error
	changes := 0
	for i := range sets {
		cs := &sets[i]
		seq := uint64(i + 1)
		changes += cs.Size()
		root := t.begin("pipeline.commit", i, -1)
		t.call("model.normalize", i, root, cs.Normalize)
		t.call("wal.append", i, root, func() { failure = wlog.Append(seq, cs.Changes) })
		if failure == nil {
			t.call("model.apply", i, root, func() { curr.Apply(cs) })
			t.call("shard.commit", i, root, func() { results, failure = rt.Commit(cs) })
			t.call("shard.engine_totals", i, root, func() { rt.EngineTotals() })
		}
		t.end(root)
		if failure != nil {
			return nil, fmt.Errorf("pipeline set %d: %w", i, failure)
		}
		if seq%snapshotEvery == 0 {
			t.call("wal.snapshot", i, -1, func() {
				failure = wlog.WriteSnapshotStream(seq, uint64(changes), curr, nil)
			})
			if failure != nil {
				return nil, fmt.Errorf("pipeline snapshot: %w", failure)
			}
		}
	}
	repairs := 0
	for _, s := range rt.ShardStats() {
		repairs += s.Repairs
	}
	kset := float64(len(sets)) / 1000
	m["shard.rebalances_per_kset"] = metric{float64(rt.Rebalances()) / kset, "count"}
	m["shard.donor_repairs_per_kset"] = metric{float64(repairs) / kset, "count"}
	return results, nil
}

// traceEngines is the engine pass: the three single-partition served
// engines fed the same normalized sets.
func traceEngines(t *tracer, initial *model.Snapshot, sets []model.ChangeSet) error {
	engines := []struct {
		span string
		sol  core.Solution
	}{
		{"core.q1.update", core.NewQ1Incremental()},
		{"core.q2.update", core.NewQ2Incremental()},
		{"core.q2cc.update", core.NewQ2IncrementalCC()},
	}
	for _, e := range engines {
		if err := e.sol.Load(initial); err != nil {
			return err
		}
		if _, err := e.sol.Initial(); err != nil {
			return err
		}
	}
	for i := range sets {
		root := t.begin("engines.update", i, -1)
		for _, e := range engines {
			var err error
			t.call(e.span, i, root, func() { _, err = e.sol.Update(&sets[i]) })
			if err != nil {
				return fmt.Errorf("%s set %d: %w", e.span, i, err)
			}
		}
		t.end(root)
	}
	return nil
}

// traceServer is the server pass: a server built by server.New on the
// initial graph (two shards, write-ahead log under dir, every other
// setting at its default) and reached through Handler().ServeHTTP. Each set
// is one waited /update, followed by w.traceReads reads. It records the
// read allocation count into m and returns the final served answers.
func traceServer(t *tracer, w *workload, st *stream, n int, dir string, m map[string]metric) (map[string]string, error) {
	srv, err := server.New(server.Config{
		Dataset:    &model.Dataset{Snapshot: st.initial},
		Shards:     2,
		PersistDir: dir,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	// Reads reuse their requests and a discarding writer, so the allocation
	// count is the handler's own.
	reads := make([]*http.Request, len(readPaths))
	for i, p := range readPaths {
		reads[i] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	rw := &discardWriter{header: http.Header{}}
	var allocs []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(st.bodies[i]))
		t.call("server.update", i, -1, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("server pass set %d: status %d: %s", i, rec.Code, rec.Body)
		}
		runtime.ReadMemStats(&ms0)
		for r := 0; r < w.traceReads; r++ {
			rw.code = 0
			t.call("server.read", i, -1, func() { h.ServeHTTP(rw, reads[r%len(reads)]) })
			if rw.code != http.StatusOK {
				return nil, fmt.Errorf("server pass read %s: status %d", readPaths[r%len(reads)], rw.code)
			}
		}
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(w.traceReads))
	}
	m["server.read_allocs"] = metric{percentile(allocs, 0.5), "count"}
	return srv.Snapshot().Results, nil
}

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
