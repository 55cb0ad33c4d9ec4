// Command perfbench is the repository's end-to-end benchmark. For one
// workload it synthesizes the inputs from a seed, sets the system up,
// drives it through the HTTP API from this single process, checks every
// answer against an oracle, and prints the metrics as one JSON object
// on the last line of standard output.
//
//	perfbench --workload query-local --seed 1 --seconds 30 --trace 0
//
// --trace 1 runs the same workload with spans recorded at the
// benchmark's wrappers around each layer and prints the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// scale sizes a run. Full scale is the benchmark; smoke scale runs every
// workload in seconds for the benchmark's own tests.
type scale struct {
	corpusEvents int     // query-local / federated corpus
	corpusDays   int     // days the corpus spans, from the window start
	mix          mixSpec // distinct URLs of the query workloads
	setups       int     // set-ups per run; setup_s is their median
	schedLen     int     // generated request schedule length
	baseEvents   int     // ingest-live sealed base corpus
	baseDays     int
	// Offered open-loop rates (requests/s) and the ingest-live replay
	// rate (observations/s), about a third of the capacity measured at
	// the commit that introduced the benchmark.
	queryRate, fedRate, dashRate, obsRate float64
}

var fullScale = scale{
	corpusEvents: 4_000_000, corpusDays: 365,
	mix:    mixSpec{counting: 3000, iterating: 1000, events: 800, iterCap: 5000},
	setups: 3, schedLen: 400_000,
	baseEvents: 1_000_000, baseDays: 180,
	queryRate: 520, fedRate: 1200, dashRate: 650, obsRate: 40_000,
}

var smokeScale = scale{
	corpusEvents: 30_000, corpusDays: 365,
	mix:    mixSpec{counting: 1200, iterating: 300, events: 100, iterCap: 2000},
	setups: 2, schedLen: 20_000,
	baseEvents: 10_000, baseDays: 180,
	queryRate: 150, fedRate: 100, dashRate: 100, obsRate: 20_000,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Metric names and units, as BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"req_p50_ms", "ms"}, {"sat_rps", "req/s"}, {"heap_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"httpapi.index.p50_ms", "ms"}, {"httpapi.index.p99_ms", "ms"},
	{"httpapi.iter.p50_ms", "ms"}, {"httpapi.iter.p99_ms", "ms"},
	{"httpapi.events.p50_ms", "ms"}, {"httpapi.outside.p50_ms", "ms"},
	{"httpapi.cache_hit_ratio", "hits/lookups"}, {"httpapi.bytes_per_req", "B/req"},
	{"attack.exec.count.p50_us", "us"},
	{"attack.exec.scan_tasks_per_req", "tasks/req"}, {"attack.exec.probe_tasks_per_req", "tasks/req"},
	{"attack.exec.bitmap_tasks_per_req", "tasks/req"}, {"attack.exec.bitmap_hit_ratio", "hits/lookups"},
	{"attack.exec.warm_ms", "ms"},
	{"attack.segment.open_ms", "ms"}, {"attack.segment.bytes_per_event", "B/event"},
	{"attack.ingest.build_ms", "ms"}, {"attack.ingest.batches_per_drain", "batches/drain"},
	{"attack.ingest.queue_max", "events"},
	{"amppot.handle_ns_per_obs", "ns/obs"}, {"amppot.drain.p50_ms", "ms"}, {"amppot.drain.p99_ms", "ms"},
	{"amppot.events_per_kobs", "events/kobs"},
	{"federation.count_rtt.p50_us", "us"}, {"federation.count_rtt.p99_us", "us"},
	{"federation.store_rtt.p50_ms", "ms"}, {"federation.store_rtt.p99_ms", "ms"},
	{"federation.wire_kb_per_req", "KB/req"},
	{"runtime.alloc_kb_per_req", "KB/req"}, {"runtime.cpu_ms_per_req", "ms/req"}, {"runtime.gc_cycles", "count"},
	{"harness.late_p99_ms", "ms"}, {"harness.trace_overhead", "ratio"},
}

// Metrics reported beside the result line only: the ingest-live
// end-to-end metrics (which the other workloads cannot have), the
// failure ratio (zero by design, and already the result's
// failed/attempted), and req_p99_ms, which on a shared two-vCPU host
// follows hypervisor CPU steal more than the program (see README.md).
var reportOnly = map[string]string{
	"fail_ratio": "failed/attempted", "req_p99_ms": "ms",
	"visible_lag_p50_ms": "ms", "visible_lag_p99_ms": "ms", "ingest_obs_per_s": "obs/s",
}

// rounds is how many times an untraced run alternates its phases.
const rounds = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	traceDir string // where traced runs write their spans; "" skips
}

// outcome is one run's measurements, before they become a result.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	provenance        map[string]any
}

func (o *outcome) add(r phaseResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, e := range r.errs {
		if len(o.errs) < 10 {
			o.errs = append(o.errs, e)
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "query-local, ingest-live or federated")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "small-scale inputs (seconds per workload)")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale,
		traceDir: ".bench_build/traces"}
	if *smoke {
		cfg.sc = smokeScale
	}
	res, out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, _ := json.Marshal(map[string]any{"report": out.provenance, "errors": out.errs})
	fmt.Println(string(rep))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result.
func run(cfg config) (result, *outcome, error) {
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "query-local":
		out, err = runQuery(cfg, false)
	case "federated":
		out, err = runQuery(cfg, true)
	case "ingest-live":
		out, err = runIngest(cfg)
	default:
		return result{}, nil, fmt.Errorf("unknown workload %q (want query-local, ingest-live or federated)", cfg.workload)
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: out.metrics[m.name], Unit: m.unit}
	}
	all := map[string]metric{}
	for name, v := range out.metrics {
		unit := reportOnly[name]
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			if m.name == name {
				unit = m.unit
			}
		}
		all[name] = metric{Value: v, Unit: unit}
	}
	all["fail_ratio"] = metric{Value: float64(out.failed) / float64(max(out.attempted, 1)), Unit: reportOnly["fail_ratio"]}
	out.provenance["metrics"] = all
	return res, out, nil
}

// provenance records what a result was measured on.
func provenance(cfg config) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "-dirty"
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "smoke": cfg.sc == smokeScale,
	}
}

// snapshot samples process-wide runtime counters around a phase.
type snapshot struct {
	alloc, gcs uint64
	cpu        time.Duration
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snapshot{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC), cpu: cpu}
}

// runtimeMetrics fills the runtime layer from two snapshots.
func runtimeMetrics(m map[string]float64, a, b snapshot, reqs int) {
	n := float64(max(reqs, 1))
	m["runtime.alloc_kb_per_req"] = float64(b.alloc-a.alloc) / 1024 / n
	m["runtime.cpu_ms_per_req"] = float64(b.cpu-a.cpu) / 1e6 / n
	m["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
}

// progress notes on standard error how long the run took to reach a
// step, so slow input synthesis is visible apart from the measurements.
func progress(since time.Time, step string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s after %.1fs\n", step, time.Since(since).Seconds())
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupRuns performs n set-ups, tearing each down before the next, and
// returns the kept (last) one with the median set-up time and the
// median heap it added. prepare, if not nil, runs untimed before each
// set-up (input synthesis).
func setupRuns[T any](n int, prepare func(), setup func() (T, error), teardown func(T)) (kept T, setupS, heapMB float64, err error) {
	var secs, heaps []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(kept)
			var zero T
			kept = zero // let the collector reclaim it before measuring
		}
		if prepare != nil {
			prepare()
		}
		before := liveHeap()
		t0 := time.Now()
		kept, err = setup()
		if err != nil {
			return kept, 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		heaps = append(heaps, (float64(liveHeap())-float64(before))/(1<<20))
	}
	return kept, median(secs), median(heaps), nil
}
