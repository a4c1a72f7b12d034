// Command servebench is the serving benchmark: it generates a deterministic
// datagen-shaped update stream from a seed, launches the real ttcserve
// binary on the generated graph, drives it from this one process, checks
// the served answers against the batch engines, and prints every metric by
// name with its unit. With -trace 1 it also replays a prefix of the same
// stream in-process through each layer's public functions and reports
// per-layer numbers instead of the end-to-end ones.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	servebench -ttcserve .bench_build/bin/ttcserve -workdir .bench_build/run \
//	           -workload ingest-sf16 -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix. Phase lengths scale with -seconds: the
// fixed-rate phase takes fixedShare of it, and the saturation phase sends
// satRate·satShare·seconds further sets, which at the measured saturation
// rate takes about satShare of it.
type workload struct {
	name string
	sf   int
	// rate is the fixed-rate phase's open-loop schedule, sets/s.
	rate float64
	// updateConns is the number of update connections; readers the number
	// of closed-loop readers running beside the updates. Together they are
	// at most 2, the host's core count.
	updateConns int
	readers     int
	// satRate is the saturation rate measured when the workload was
	// chosen; it sizes the saturation phase.
	satRate float64
	// traceReads is the number of reads after each set in the traced
	// server pass.
	traceReads int
}

const (
	fixedShare = 0.45
	satShare   = 0.45
	// setups is how many times the server is started per run; setup_s is
	// their median and the last start serves the load.
	setups = 5
	// probeReads is the size of the quiescent read phase that follows the
	// update phases of workloads without readers beside the updates.
	probeReads = 30000
	// traceSets is the traced run's prefix: past the 256-commit snapshot
	// cadence, so the WAL snapshot is measured once.
	traceSets = 320
)

// ingest-sf128 is not in BENCHMARK.json: on a shared 2-core VM its
// wall-clock figures moved with the load of other tenants far more than the
// sf 16 ones (update p50 spread 0.30 and saturation 0.23 across ten seeds),
// past any bound the benchmark may carry. It is kept for comparing per-layer
// cost against graph size by hand; see README.md.
var workloads = []workload{
	{name: "ingest-sf16", sf: 16, rate: 100, updateConns: 2, satRate: 240, traceReads: 3},
	{name: "ingest-sf128", sf: 128, rate: 25, updateConns: 2, satRate: 70, traceReads: 3},
	{name: "read-mostly", sf: 16, rate: 20, updateConns: 1, readers: 1, satRate: 200, traceReads: 30},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: ingest-sf16, ingest-sf128 or read-mostly")
		seed    = flag.Int64("seed", 1, "stream and graph seed")
		seconds = flag.Int("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced in-process run")
		bin     = flag.String("ttcserve", "", "path to the ttcserve binary")
		workdir = flag.String("workdir", "", "directory for datasets, write-ahead logs and traces")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("servebench: ")

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		log.Fatalf("unknown workload %q", *name)
	case *seconds < 1:
		log.Fatalf("-seconds must be >= 1 (got %d)", *seconds)
	case *trace != 0 && *trace != 1:
		log.Fatalf("-trace must be 0 or 1 (got %d)", *trace)
	case *bin == "" || *workdir == "":
		log.Fatal("-ttcserve and -workdir are required")
	}

	res, err := run(w, *seed, *seconds, *trace == 1, *bin, *workdir)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// run performs one benchmark run in a private directory under workdir,
// removed afterwards.
func run(w *workload, seed int64, seconds int, trace bool, bin, workdir string) (*result, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fixedSets := int(w.rate * fixedShare * float64(seconds))
	satSets := int(w.satRate * satShare * float64(seconds))
	n := fixedSets + satSets
	if trace && n < traceSets {
		n = traceSets
	}
	st, err := newStream(w.sf, seed, n)
	if err != nil {
		return nil, err
	}

	e2e, err := drive(w, st, fixedSets, satSets, bin, dir)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: e2e.correct, Attempted: e2e.attempted, Failed: e2e.failed}
	if !trace {
		res.Metrics = e2e.metrics
		return res, nil
	}
	tr, err := traceRun(w, st, dir, filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)))
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && tr.correct
	res.Metrics = tr.metrics
	for k, v := range e2e.layer {
		res.Metrics[k] = v
	}
	return res, nil
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place. Empty input reports 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// heapAlloc reports live heap bytes after a full collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
