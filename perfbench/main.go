// Command perfbench is the repository's benchmark. It drives the
// compiler, the simulated cluster and the job server only through
// their public calls, times each call into a layer, checks every job's
// outputs against pinned references, and prints one JSON result line.
//
//	go run . --workload mm-full --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a timed window;
// with --trace 1 it follows an untraced window with a traced replay of
// the same jobs and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is their
// median, and the last set-up serves the timed window.
const setupRepeats = 15

// spansDir is where a traced run writes its spans, inside the checkout
// the benchmark runs from.
const spansDir = ".bench_build/spans"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mm-full, mm-1024 or serve-cold")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 replays the window's jobs with spans and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (mm-full, mm-1024, serve-cold), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	meta := map[string]any{
		"schema":     "perfbench/v1",
		"workload":   w.name,
		"seed":       *seed,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"clients":    w.clients,
		"pools":      w.pools,
		"loop":       "closed",
		"trace":      *traced,
	}
	var res result
	var err error
	if *traced == 0 {
		res, err = endToEnd(w, *seed, time.Duration(*seconds)*time.Second, meta)
	} else {
		var t *tracer
		res, t, err = perLayer(w, *seed, time.Duration(*seconds)*time.Second, meta)
		if err == nil {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			meta["spans_file"] = path
			err = t.write(path, meta)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(map[string]any{"metadata": meta})
	if err == nil {
		fmt.Println(string(out))
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp checks the workload's references, then sets it up
// setupRepeats times, releasing all but the last runner, and returns
// that runner with the median set-up time.
func setUp(w *workload, seed uint64, meta map[string]any) (runner, float64, error) {
	if w.reference != nil {
		if err := w.reference(); err != nil {
			return nil, 0, fmt.Errorf("reference check: %w", err)
		}
	}
	var times []float64
	var rn runner
	for r := 0; r < setupRepeats; r++ {
		if rn != nil {
			if err := rn.finish(0, nil); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC() // every set-up starts from the same collected heap
		start := time.Now()
		var err error
		rn, err = w.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	meta["setup_window_s"] = times
	return rn, median(times), nil
}

// window is one closed loop: each client starts its next job only
// after the previous one ends, until the deadline passes or limit jobs
// (if positive) have started. Job indices are handed out in order.
type window struct {
	latMs  []float64
	ok     int
	failed int
	wall   time.Duration
	h0, h1 heap
}

func runWindow(clients int, d time.Duration, limit int, job func(i int) error) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		win  window
	)
	runtime.GC()
	win.h0 = readHeap()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				t := time.Now()
				err := job(i)
				lat := ms(time.Since(t))
				mu.Lock()
				if err != nil {
					win.failed++
					if win.failed <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", i, err)
					}
				} else {
					win.ok++
					win.latMs = append(win.latMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.h1 = readHeap()
	return win
}

func (w window) attempted() int { return w.ok + w.failed }

// endToEnd sets up, runs the timed window untraced and reports the
// end-to-end metrics.
func endToEnd(w *workload, seed uint64, d time.Duration, meta map[string]any) (result, error) {
	rn, setupS, err := setUp(w, seed, meta)
	if err != nil {
		return result{}, err
	}
	win := runWindow(w.clients, d, 0, rn.run)
	res := result{Correct: true, Attempted: win.attempted(), Failed: win.failed}
	if err := rn.finish(win.attempted(), nil); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	if win.ok == 0 {
		return result{}, fmt.Errorf("no job completed in %v", d)
	}
	meta["timed_window_s"] = win.wall.Seconds()
	allocMB, _, _, _ := perJob(win.h0, win.h1, win.attempted())
	res.Correct = res.Correct && win.failed == 0
	res.Metrics = map[string]metric{
		"jobs_per_s":       {float64(win.ok) / win.wall.Seconds(), "1/s"},
		"job_ms.p50":       {quantile(win.latMs, 0.5), "ms"},
		"job_ms.p90":       {quantile(win.latMs, 0.9), "ms"},
		"alloc_mb_per_job": {allocMB, "MB"},
		"setup_s":          {setupS, "s"},
	}
	return res, nil
}

// layerUnits lists every per-layer metric with its unit. A metric
// whose layer is not on a workload's path reads 0 there (README.md).
var layerUnits = map[string]string{
	"f77.parse_ms":                "ms",
	"analysis.inline_ms":          "ms",
	"analysis.const-prop_ms":      "ms",
	"analysis.induction_ms":       "ms",
	"analysis.parallel-detect_ms": "ms",
	"postpass.partition_ms":       "ms",
	"postpass.spmdize_ms":         "ms",
	"postpass.scatter-collect_ms": "ms",
	"postpass.grain-opt_ms":       "ms",
	"postpass.coalesce_ms":        "ms",
	"postpass.avpg_ms":            "ms",
	"postpass.env-gen_ms":         "ms",
	"postpass.resilience_ms":      "ms",
	"core.compile_ms":             "ms",
	"interp.run_ms":               "ms",
	"interp.timing_run_ms":        "ms",
	"interp.compute_ms":           "ms",
	"mpi.comm_ops":                "count",
	"mpi.bytes":                   "bytes",
	"mpi.ns_per_op":               "ns",
	"sim.virtual_s":               "sim_s",
	"host.mallocs_per_job":        "count",
	"host.gc_cycles_per_job":      "count",
	"host.gc_pause_ms_per_job":    "ms",
	"trace.events":                "count",
	"trace.overhead_ms":           "ms",
	"jobs.submit_us":              "us",
	"jobs.queued_ms.p50":          "ms",
	"jobs.queued_ms.p90":          "ms",
	"jobs.compile_ms":             "ms",
	"jobs.run_ms":                 "ms",
	"jobs.cache_misses":           "count",
	"jobs.warm_ms":                "ms",
	"jobs.warm_plans":             "count",
	"http.overhead_ms":            "ms",
	"bench.traced_gap_ms":         "ms",
	"bench.traced_jobs":           "count",
}

// perLayer runs half the budget as an untraced window, then sets up
// again and replays the same jobs with spans for the other half. The
// per-layer values are medians over the traced jobs, except the heap
// counters, which are deltas over the untraced window per job, and the
// run-level counts the runner adds.
func perLayer(w *workload, seed uint64, d time.Duration, meta map[string]any) (result, *tracer, error) {
	rn, _, err := setUp(w, seed, meta)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: true}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	win := runWindow(w.clients, d/2, 0, rn.run)
	if err := rn.finish(win.attempted(), nil); err != nil {
		fail(err)
	}
	if win.ok == 0 {
		return result{}, nil, fmt.Errorf("no job completed in %v", d/2)
	}
	meta["timed_window_s"] = win.wall.Seconds()

	rn, err = w.setup(seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	t := newTracer()
	var mu sync.Mutex
	samples := map[string][]float64{}
	replay := runWindow(w.clients, d/2, win.attempted(), func(i int) error {
		layer, err := rn.traced(t, i)
		if err != nil {
			return err
		}
		mu.Lock()
		for k, v := range layer {
			samples[k] = append(samples[k], v)
		}
		mu.Unlock()
		return nil
	})
	counts := map[string]float64{}
	if err := rn.finish(replay.attempted(), counts); err != nil {
		fail(err)
	}
	if replay.ok == 0 {
		return result{}, nil, fmt.Errorf("no traced job completed in %v", d/2)
	}
	meta["traced_window_s"] = replay.wall.Seconds()
	res.Attempted = win.attempted() + replay.attempted()
	res.Failed = win.failed + replay.failed
	res.Correct = res.Correct && res.Failed == 0

	values := map[string]float64{}
	for k, s := range samples {
		values[k] = median(s)
	}
	for k, v := range counts {
		values[k] = v
	}
	if q := samples["jobs.queued_ms"]; q != nil {
		values["jobs.queued_ms.p50"] = quantile(q, 0.5)
		values["jobs.queued_ms.p90"] = quantile(q, 0.9)
	}
	_, mallocs, gcs, pauseMs := perJob(win.h0, win.h1, win.attempted())
	values["host.mallocs_per_job"] = mallocs
	values["host.gc_cycles_per_job"] = gcs
	values["host.gc_pause_ms_per_job"] = pauseMs
	values["bench.traced_gap_ms"] = values["job_ms"] - quantile(win.latMs, 0.5)
	values["bench.traced_jobs"] = float64(replay.ok)

	res.Metrics = map[string]metric{}
	for k, unit := range layerUnits {
		res.Metrics[k] = metric{values[k], unit}
	}
	printLayers(values)
	return res, t, nil
}

// printLayers writes the per-layer values as a table on standard
// error, for a reader at a terminal.
func printLayers(values map[string]float64) {
	names := make([]string, 0, len(layerUnits))
	for k := range layerUnits {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-30s %14.4f %s\n", k, values[k], layerUnits[k])
	}
}
