package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/model"
)

// Honesty limits for the fixed-rate phase: a phase whose sets are still
// unacknowledged this long after its last scheduled send, or whose
// generator ran this late at p99, measured a backlog or a slow generator
// rather than the server at the stated rate, and fails the run.
const (
	maxDrain    = 2 * time.Second
	maxLateness = 20 * time.Millisecond
)

// e2eResult is what the untraced run measured.
type e2eResult struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	// layer holds the per-layer values the untraced run measures: the
	// generator's own and the server's /stats.
	layer map[string]metric
}

// drive runs the end-to-end part: it writes the graph, starts ttcserve
// setups times, drives the last instance through the fixed-rate phase, the
// saturation phase and (for workloads without concurrent readers) a
// quiescent read phase, samples the server from /proc, and checks the
// served answers.
func drive(w *workload, st *stream, fixedSets, satSets int, bin, dir string) (*e2eResult, error) {
	data := filepath.Join(dir, "data")
	if err := model.WriteDataset(data, &model.Dataset{Snapshot: st.initial}); err != nil {
		return nil, fmt.Errorf("write dataset: %w", err)
	}

	var setup []float64
	var srv *serverProc
	for i := 0; i < setups; i++ {
		p, d, err := startServer(bin, data, filepath.Join(dir, fmt.Sprintf("wal-%d", i)), filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		if i < setups-1 {
			if err := p.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = p
	}
	defer srv.stop()

	// The generator runs one thread per connection. On one thread, the
	// read-mostly reader starved the update connection (update p50 jumped
	// between 5 and 11 ms from run to run); the connection cap, not the
	// thread count, bounds the load it offers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.updateConns + w.readers))

	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	d := newDispatcher(st, srv.base, w.updateConns)
	ctx, stopReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	rds := make([]*reader, w.readers)
	for i := range rds {
		rds[i] = newReader(srv.base)
		rds[i].recording.Store(true)
		readers.Add(1)
		go func(r *reader) {
			defer readers.Done()
			r.loop(ctx, -1)
		}(rds[i])
	}

	fx := d.fixedRate(0, fixedSets, w.rate)
	for _, r := range rds {
		r.recording.Store(false)
	}
	satStart := time.Now()
	d.closedLoop(fixedSets, fixedSets+satSets, w.updateConns)
	satElapsed := time.Since(satStart)
	stopReaders()
	readers.Wait()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}

	var reads loadgen.Histogram
	var readsAttempted, readsFailed int64
	if w.readers == 0 {
		// One connection, so one thread.
		procs := runtime.GOMAXPROCS(1)
		r := newReader(srv.base)
		r.recording.Store(true)
		r.loop(context.Background(), probeReads)
		rds = append(rds, r)
		runtime.GOMAXPROCS(procs)
	}
	for _, r := range rds {
		reads.Merge(&r.hist)
		readsAttempted += r.attempted
		readsFailed += r.failed
	}

	hwm, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	ok, stats, err := d.checkAnswers()
	if err != nil {
		return nil, err
	}

	// A graceful stop drains the queue, fsyncs the WAL and writes the final
	// snapshot; a server that cannot do that failed the run.
	if err := srv.stop(); err != nil {
		log.Print(err)
		ok = false
	}
	acked := d.ackedSets()
	honest := fx.drain <= maxDrain && quantile(&fx.lateness, 0.99) <= float64(maxLateness)
	if !honest {
		log.Printf("fixed-rate phase not honest: drain %v (limit %v), lateness p99 %.3f ms (limit %v)",
			fx.drain, maxDrain, quantile(&fx.lateness, 0.99)/1e6, maxLateness)
	}
	log.Printf("%s: %d sets acknowledged (%d fixed-rate at %.0f/s, %d saturation in %v), %d reads, setups %v",
		w.name, acked, fixedSets, w.rate, satSets, satElapsed.Round(time.Millisecond), reads.Count(), setup)

	res := &e2eResult{
		correct:   ok && honest,
		attempted: int64(fixedSets+satSets) + readsAttempted,
		failed:    d.failed.Load() + readsFailed,
		metrics: map[string]metric{
			"setup_s":        {percentile(setup, 0.5), "s"},
			"cpu_ms_per_set": {ms(cpu1-cpu0) / float64(acked), "ms"},
			"rss_peak_mb":    {hwm / (1 << 20), "MB"},
		},
		// Latencies and the saturation rate move with the load other
		// tenants put on a shared 2-core host, across seeds more than any
		// bound of at most 25% allows (see README.md), so they are reported
		// with the per-layer metrics.
		layer: map[string]metric{
			"loadgen.update_p50_ms":     {quantile(&fx.latency, 0.5) / 1e6, "ms"},
			"loadgen.read_p50_us":       {quantile(&reads, 0.5) / 1e3, "us"},
			"loadgen.sat_sets_s":        {float64(satSets) / satElapsed.Seconds(), "1/s"},
			"loadgen.update_p99_ms":     {quantile(&fx.latency, 0.99) / 1e6, "ms"},
			"loadgen.read_p99_us":       {quantile(&reads, 0.99) / 1e3, "us"},
			"loadgen.dep_hold_p50_ms":   {quantile(&fx.hold, 0.5) / 1e6, "ms"},
			"loadgen.lateness_p99_ms":   {quantile(&fx.lateness, 0.99) / 1e6, "ms"},
			"server.changes_per_commit": {float64(stats.Changes) / float64(stats.Seq), "changes/commit"},
		},
	}
	return res, nil
}

// quantile reads the q-quantile of a histogram, interpolating linearly
// inside the bucket that holds it, in the histogram's unit (ns).
func quantile(h *loadgen.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for _, b := range h.Buckets() {
		c := float64(b.Count)
		if cum+c >= rank {
			v := float64(b.LowNs) + float64(b.HighNs-b.LowNs)*(rank-cum)/c
			return min(v, float64(h.Max()))
		}
		cum += c
	}
	return float64(h.Max())
}

// serverProc is one running ttcserve.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // the process's exit status, set before done closes
	once sync.Once
}

// startServer launches ttcserve on a free port with a fresh durability
// directory and returns once /healthz answers 200, with the time from the
// process start to that answer.
func startServer(bin, data, walDir, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data", data, "-data-dir", walDir, "-shards", "2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, also when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ttcserve: %w", err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()

	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("ttcserve exited before ready: %v (log %s)", p.err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = p.stop()
			return nil, 0, fmt.Errorf("ttcserve not ready after %v", time.Since(start))
		}
	}
}

// stop shuts the server down gracefully (SIGTERM: drain, flush, final
// snapshot) and waits for it to exit, killing it if it takes too long.
func (p *serverProc) stop() error {
	var err error
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
			if p.err != nil {
				err = fmt.Errorf("ttcserve exit: %w", p.err)
			}
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			err = errors.New("ttcserve did not stop within 30s; killed")
		}
	})
	return err
}

// procFile reads /proc/<pid>/<file>.
func (p *serverProc) procFile(file string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", p.cmd.Process.Pid, file))
	return string(b), err
}

// cpuTime is the server's user+system CPU time so far.
func (p *serverProc) cpuTime() (time.Duration, error) {
	s, err := p.procFile("stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", s)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the server's resident-set high-water mark (VmHWM), in bytes.
func (p *serverProc) peakRSS() (float64, error) {
	s, err := p.procFile("status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(s, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// drain consumes and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// dispatcher sends the stream's sets, holding each until the sets it
// depends on are acknowledged.
type dispatcher struct {
	st     *stream
	base   string
	client *http.Client
	// answered[i] is closed once set i's request has returned, whatever
	// the outcome; ok[i] (written before the close) reports a 200.
	answered []chan struct{}
	ok       []bool
	failed   atomic.Int64
}

func newDispatcher(st *stream, base string, conns int) *dispatcher {
	d := &dispatcher{
		st:   st,
		base: base,
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		answered: make([]chan struct{}, len(st.sets)),
		ok:       make([]bool, len(st.sets)),
	}
	for i := range d.answered {
		d.answered[i] = make(chan struct{})
	}
	return d
}

// hold blocks until every set i depends on has been answered.
func (d *dispatcher) hold(i int) {
	for _, j := range d.st.deps[i] {
		<-d.answered[j]
	}
}

// send posts set i and records the outcome.
func (d *dispatcher) send(i int) {
	defer close(d.answered[i])
	resp, err := d.client.Post(d.base+"/update", "application/json", bytes.NewReader(d.st.bodies[i]))
	if err != nil {
		log.Printf("set %d: %v", i, err)
		d.failed.Add(1)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ur struct {
		Committed bool `json:"committed"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ur) != nil || !ur.Committed {
		log.Printf("set %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
		d.failed.Add(1)
		return
	}
	d.ok[i] = true
}

// fixedStats is the fixed-rate phase's measurement, all in ns.
type fixedStats struct {
	latency  loadgen.Histogram // scheduled send → acknowledgement
	lateness loadgen.Histogram // scheduled send → generator dispatch
	hold     loadgen.Histogram // dispatch → dependencies acknowledged
	// drain is how long after the last scheduled send the phase's last
	// acknowledgement arrived.
	drain time.Duration
}

// fixedRate sends sets [from, from+n) open-loop at rate sets/s. Each set is
// timed from its scheduled send, so time it spends held or queued for a
// connection counts against the server. One goroutine per set: n is bounded
// by the phase length, and a set waits for its dependencies without
// delaying the schedule.
func (d *dispatcher) fixedRate(from, n int, rate float64) *fixedStats {
	fs := &fixedStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			<-timer.C
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			t := time.Now()
			d.hold(i)
			hold := time.Since(t)
			d.send(i)
			lat := time.Since(due)
			mu.Lock()
			fs.lateness.Record(late.Nanoseconds())
			fs.hold.Record(hold.Nanoseconds())
			if d.ok[i] {
				fs.latency.Record(lat.Nanoseconds())
			}
			mu.Unlock()
		}(from+k, due, late)
	}
	last := start.Add(time.Duration(n-1) * interval)
	wg.Wait()
	fs.drain = max(0, time.Since(last))
	return fs
}

// closedLoop sends sets [from, to) from conns workers, each taking the next
// set in stream order once its previous one is answered.
func (d *dispatcher) closedLoop(from, to, conns int) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				d.hold(i)
				d.send(i)
			}
		}()
	}
	wg.Wait()
}

// ackedSets counts the acknowledged sets.
func (d *dispatcher) ackedSets() int {
	n := 0
	for _, ok := range d.ok {
		if ok {
			n++
		}
	}
	return n
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Seq             int `json:"seq"`
	Changes         int `json:"changes"`
	Q2Disagreements int `json:"q2Disagreements"`
}

// checkAnswers is the end-of-run oracle: the served q1, q2 and q2cc must
// equal the batch engines over the initial graph plus every acknowledged
// set, /stats must count exactly the acknowledged changes, and the two Q2
// engines must never have disagreed.
func (d *dispatcher) checkAnswers() (bool, serverStats, error) {
	var stats serverStats
	if err := getJSON(d.client, d.base+"/stats", &stats); err != nil {
		return false, stats, err
	}
	want, changes, err := batchAnswers(d.st.initial, d.st.sets, d.ok)
	if err != nil {
		return false, stats, err
	}
	ok := true
	for engine, path := range map[string]string{"q1": "/query/q1", "q2": "/query/q2", "q2cc": "/query/q2?engine=cc"} {
		var q struct {
			Result string `json:"result"`
		}
		if err := getJSON(d.client, d.base+path, &q); err != nil {
			return false, stats, err
		}
		if q.Result != want[engine] {
			log.Printf("oracle: %s served %q, batch engines computed %q", engine, q.Result, want[engine])
			ok = false
		}
	}
	if stats.Changes != changes {
		log.Printf("oracle: /stats counts %d committed changes, acknowledged sets hold %d", stats.Changes, changes)
		ok = false
	}
	if stats.Q2Disagreements != 0 {
		log.Printf("oracle: /stats reports %d Q2 engine disagreements", stats.Q2Disagreements)
		ok = false
	}
	return ok, stats, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reader is one closed-loop reader cycling q1, q2 and q2cc.
type reader struct {
	base   string
	client *http.Client
	// recording gates whether latencies enter hist; only the loop's
	// goroutine touches hist, attempted and failed until it returns.
	recording atomic.Bool
	hist      loadgen.Histogram
	attempted int64
	failed    int64
}

var readPaths = []string{"/query/q1", "/query/q2", "/query/q2?engine=cc"}

func newReader(base string) *reader {
	return &reader{base: base, client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

// loop reads until ctx is done, or n reads when n >= 0. Every read counts
// as attempted; only successful reads while recording enter hist.
func (r *reader) loop(ctx context.Context, n int) {
	defer r.client.CloseIdleConnections()
	for k := 0; (n < 0 || k < n) && ctx.Err() == nil; k++ {
		url := r.base + readPaths[k%len(readPaths)]
		t := time.Now()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := r.client.Do(req)
		if err != nil && ctx.Err() != nil {
			return // cancelled mid-request at the end of the phase
		}
		ok := err == nil && resp.StatusCode == http.StatusOK
		if err == nil {
			drain(resp)
		}
		lat := time.Since(t)
		r.attempted++
		switch {
		case !ok:
			r.failed++
		case r.recording.Load():
			r.hist.Record(lat.Nanoseconds())
		}
	}
}
