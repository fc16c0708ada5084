package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/jobs"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// runner executes one workload's jobs after set-up. Job indices are
// dense from 0, so a traced replay of indices 0..n-1 re-runs exactly
// the jobs of an untraced window.
type runner interface {
	// run executes job i untraced and checks its outputs.
	run(i int) error
	// traced executes job i with a span around each layer call and
	// returns the job's per-layer measurements (keys are metric names;
	// "job_ms" is the job's own wall time, diagnostics excluded).
	traced(t *tracer, i int) (map[string]float64, error)
	// finish checks what only the whole run can show, given the number
	// of jobs attempted, adds its per-layer counts to layer, and
	// releases the runner.
	finish(attempted int, layer map[string]float64) error
}

// workload is one benchmark input set. See README.md for why each was
// chosen and which layers it should move.
type workload struct {
	name    string
	clients int
	// pools records the host worker pools the workload runs with, for
	// the metadata block.
	pools map[string]int
	// reference checks, once per run and untimed, that independent
	// paths through the program agree with the pinned expectations.
	reference func() error
	setup     func(seed uint64) (runner, error)
}

var workloads = []workload{
	{
		name:    "mm-full",
		clients: 1,
		// RunParallel sizes its rank pool to GOMAXPROCS.
		pools: map[string]int{"rank_workers": runtime.GOMAXPROCS(0)},
		reference: func() error {
			c, err := core.Compile(bench.MMSource(64), mmFullOpts)
			if err != nil {
				return err
			}
			seq, err := c.RunSequential(core.Full)
			if err != nil {
				return fmt.Errorf("sequential reference: %w", err)
			}
			if got := fields(seq.Output); got != mmFullPin.output {
				return fmt.Errorf("sequential reference printed %q, pinned %q", got, mmFullPin.output)
			}
			tm, err := c.RunParallel(core.Timing)
			if err != nil {
				return fmt.Errorf("timing reference: %w", err)
			}
			return mmFullPin.check("", tm.Elapsed, tm.Report.TotalCommOps(), core.Timing)
		},
		setup: func(uint64) (runner, error) {
			return newMM(bench.MMSource(64), mmFullOpts, core.Full, mmFullPin)
		},
	},
	{
		name:    "mm-1024",
		clients: 1,
		pools:   map[string]int{"rank_workers": runtime.GOMAXPROCS(0)},
		setup: func(uint64) (runner, error) {
			return newMM(bench.MMSource(1024), core.Options{NumProcs: 1024, Grain: lmad.Coarse}, core.Timing, mm1024Pin)
		},
	},
	{
		name:    "serve-cold",
		clients: 2,
		pools:   map[string]int{"clusters": serveConfig.Clusters, "rank_workers": serveConfig.RankWorkers},
		setup:   func(seed uint64) (runner, error) { return newServe(seed) },
	},
}

var mmFullOpts = core.Options{NumProcs: 4, Grain: lmad.Coarse}

// pin is a job's expected result. The values come from outside the run
// that checks them: the sequential interpreter for MM's printed
// output, and the committed BENCH_scale.json row MM/vbus/1024.
type pin struct {
	output  string // whitespace-normalized; "" in Timing mode
	virtual sim.Time
	commOps int64
}

var (
	// mmFullPin: RunSequential(Full) prints these values, and the
	// Full-mode makespan equals the Timing-mode one.
	mmFullPin = pin{output: "21.8203125 -42.1640625", virtual: 21733305168, commOps: 241}
	// mm1024Pin is BENCH_scale.json MM/vbus/1024: 463.384742531408 s,
	// 17401 comm ops.
	mm1024Pin = pin{virtual: 463384742531408, commOps: 17401}
	// servePin holds for every seeded SWIM variant: the literal the
	// seed varies moves no virtual time.
	servePin = pin{virtual: 42103083352, commOps: 972}
)

func fields(s string) string { return strings.Join(strings.Fields(s), " ") }

// check compares one run's output, makespan and communication count
// with the pin. Timing mode prints nothing, so its output is not
// compared.
func (p pin) check(output string, virtual sim.Time, commOps int64, mode core.Mode) error {
	if mode == core.Full {
		if got := fields(output); got != p.output {
			return fmt.Errorf("output %q, want %q", got, p.output)
		}
	}
	if virtual != p.virtual {
		return fmt.Errorf("virtual makespan %v (%d ps), want %v (%d ps)", virtual, int64(virtual), p.virtual, int64(p.virtual))
	}
	if commOps != p.commOps {
		return fmt.Errorf("comm ops %d, want %d", commOps, p.commOps)
	}
	return nil
}

// mmRunner compiles and runs one MM source per job, one job at a time,
// as vbrun does.
type mmRunner struct {
	src  string
	opts core.Options
	mode core.Mode
	pin  pin
}

// newMM builds the input and runs one warm-up job.
func newMM(src string, opts core.Options, mode core.Mode, p pin) (runner, error) {
	m := &mmRunner{src: src, opts: opts, mode: mode, pin: p}
	if err := m.run(-1); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return m, nil
}

func (m *mmRunner) run(int) error {
	c, err := core.Compile(m.src, m.opts)
	if err != nil {
		return err
	}
	res, err := c.RunParallel(m.mode)
	if err != nil {
		return err
	}
	return m.pin.check(res.Output, res.Elapsed, res.Report.TotalCommOps(), m.mode)
}

func (m *mmRunner) traced(t *tracer, i int) (map[string]float64, error) {
	layer := map[string]float64{}
	job, start := t.open(i, 0, "job")
	c, err := compileTraced(t, i, job, m.src, m.opts, layer)
	if err != nil {
		return nil, err
	}
	rid, rs := t.open(i, job, "interp.run")
	res, err := c.RunParallel(m.mode)
	layer["interp.run_ms"] = ms(t.close(rid, rs))
	layer["job_ms"] = ms(t.close(job, start))
	if err != nil {
		return nil, err
	}
	if err := m.pin.check(res.Output, res.Elapsed, res.Report.TotalCommOps(), m.mode); err != nil {
		return nil, err
	}
	return layer, runLayers(t, i, c, m.mode, res, m.pin, layer)
}

func (m *mmRunner) finish(int, map[string]float64) error { return nil }

// compileTraced compiles under a core.compile span whose children are
// the pipeline's passes.
func compileTraced(t *tracer, job, parent int, src string, opts core.Options, layer map[string]float64) (*core.Compiled, error) {
	pt := &core.PassTrace{}
	opts.Trace = pt
	id, start := t.open(job, parent, "core.compile")
	c, err := core.Compile(src, opts)
	layer["core.compile_ms"] = ms(t.close(id, start))
	t.passes(job, id, start, pt, layer)
	return c, err
}

// runLayers splits the run of plan c, already timed as interp.run_ms
// and checked, into its nested layers by re-running the same plan
// outside the job's span: once in Timing mode, which skips compute
// loops, so the difference is the interpreter's statement execution;
// and once more with a fresh trace.Recorder, whose extra wall is the
// cost of recording the timeline.
func runLayers(t *tracer, job int, c *core.Compiled, mode core.Mode, res *interp.Result, p pin, layer map[string]float64) error {
	timing := layer["interp.run_ms"]
	if mode == core.Full {
		id, start := t.open(job, 0, "interp.timing_run")
		tres, err := c.RunParallel(core.Timing)
		timing = ms(t.close(id, start))
		if err != nil {
			return err
		}
		if err := p.check("", tres.Elapsed, tres.Report.TotalCommOps(), core.Timing); err != nil {
			return fmt.Errorf("timing re-run: %w", err)
		}
	}
	rec := trace.New()
	id, start := t.open(job, 0, "trace.recorded_run")
	rres, err := c.RunParallelWith(core.Timing, core.RunParams{Recorder: rec})
	recorded := ms(t.close(id, start))
	if err != nil {
		return err
	}
	if err := p.check("", rres.Elapsed, rres.Report.TotalCommOps(), core.Timing); err != nil {
		return fmt.Errorf("recorded re-run: %w", err)
	}
	ops := res.Report.TotalCommOps()
	layer["interp.timing_run_ms"] = timing
	layer["interp.compute_ms"] = layer["interp.run_ms"] - timing
	layer["mpi.comm_ops"] = float64(ops)
	layer["mpi.bytes"] = float64(res.Report.TotalCommBytes())
	layer["sim.virtual_s"] = res.Elapsed.Seconds()
	layer["mpi.ns_per_op"] = timing * 1e6 / float64(ops)
	layer["trace.events"] = float64(rec.Len())
	layer["trace.overhead_ms"] = recorded - timing
	return nil
}

// serveConfig is the in-process vbserve: two simulated clusters, one
// rank worker each, so the pools never exceed the sandbox's two cores.
var serveConfig = jobs.Config{Clusters: 2, RankWorkers: 1}

// warmPlans is the journal's size, the plan cache's default capacity:
// after warming, every new plan evicts the least recently used one.
const warmPlans = 32

// variants generates serve-cold's job stream from the seed. Every job
// is SWIM 32×32 on 4 ranks in Timing mode; job i sets the literal
// A = 1000000+k(i), which gives it its own plan key while the compile
// and run work stay fixed. k walks a full cycle of the residues mod
// 10^6 (the stride is odd and not a multiple of 5), so the first
// million jobs are all distinct, and every literal has seven digits.
type variants struct {
	offset, stride uint64
}

const variantSpan = 1000000

func newVariants(seed uint64) variants {
	stride := splitmix64(seed^0x5bd1e995)%variantSpan | 1
	if stride%5 == 0 {
		stride += 2
	}
	return variants{offset: splitmix64(seed) % variantSpan, stride: stride}
}

var swimBase = bench.SwimSource(32, 32)

// k is job i's literal offset.
func (v variants) k(i int) uint64 { return (v.offset + uint64(i)*v.stride) % variantSpan }

func (v variants) spec(i int) jobs.Spec {
	src := strings.Replace(swimBase, "A = 1000000.0", fmt.Sprintf("A = %d.0", variantSpan+v.k(i)), 1)
	return jobs.Spec{Source: src, Procs: 4, Mode: "timing", Tenant: "perfbench"}
}

// serveRunner drives an in-process vbserve through its HTTP handler,
// with no sockets. Jobs 0..warmPlans-1 are the journal; timed job i
// submits variant warmPlans+i, so every timed job misses the cache.
type serveRunner struct {
	srv     *jobs.Server
	h       http.Handler
	gen     variants
	misses0 int64
	warmMs  float64
	warmed  int
}

// newServe starts the server and warms it from a journal of the first
// warmPlans variants, round-tripped through the journal codec as a
// vbserve -cache-journal restart reads it.
func newServe(seed uint64) (runner, error) {
	gen := newVariants(seed)
	specs := make([]jobs.Spec, warmPlans)
	for i := range specs {
		specs[i] = gen.spec(i)
	}
	decoded, err := jobs.DecodeJournal(jobs.EncodeJournal(specs))
	if err != nil {
		return nil, fmt.Errorf("journal round trip: %w", err)
	}
	srv := jobs.New(serveConfig)
	start := time.Now()
	warmed := srv.WarmSpecs(decoded)
	s := &serveRunner{srv: srv, h: srv.Handler(), gen: gen, warmMs: ms(time.Since(start)), warmed: warmed}
	if warmed != warmPlans {
		s.stop()
		return nil, fmt.Errorf("warmed %d plans from the journal, want %d", warmed, warmPlans)
	}
	s.misses0 = srv.Metrics().Cache.Misses
	return s, nil
}

// post submits job i and waits for it, as a vbserve client blocking on
// ?wait=1 does, returning the job's view and the handler's wall time.
func (s *serveRunner) post(i int) (jobs.View, time.Duration, error) {
	body, err := json.Marshal(s.gen.spec(warmPlans + i))
	if err != nil {
		return jobs.View{}, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.h.ServeHTTP(rec, req)
	wall := time.Since(start)
	if rec.Code != http.StatusOK {
		return jobs.View{}, wall, fmt.Errorf("POST /v1/jobs: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var v jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return v, wall, fmt.Errorf("decode job view: %w", err)
	}
	return v, wall, checkView(v)
}

// checkView accepts a finished job only if it ran, missed the plan
// cache and took the pinned virtual time.
func checkView(v jobs.View) error {
	if v.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if v.CacheHit {
		return fmt.Errorf("job %s hit the plan cache; every job must compile", v.ID)
	}
	if want := servePin.virtual.Seconds(); v.VirtualSeconds != want {
		return fmt.Errorf("job %s: virtual time %v s, want %v s", v.ID, v.VirtualSeconds, want)
	}
	return nil
}

func (s *serveRunner) run(i int) error {
	_, _, err := s.post(i)
	return err
}

func (s *serveRunner) traced(t *tracer, i int) (map[string]float64, error) {
	layer := map[string]float64{}
	id, start := t.open(i, 0, "http")
	v, wall, err := s.post(i)
	t.close(id, start)
	if err != nil {
		return nil, err
	}
	// The server times its own stages; lay them out under the request
	// in the order they ran.
	at := start
	for _, st := range []struct {
		name string
		ms   float64
	}{{"jobs.queued", v.QueuedMs}, {"jobs.compile", v.CompileMs}, {"jobs.run", v.RunMs}} {
		d := time.Duration(st.ms * float64(time.Millisecond))
		t.add(i, id, st.name, at, d)
		at = at.Add(d)
		layer[st.name+"_ms"] = st.ms
	}
	layer["job_ms"] = ms(wall)
	layer["http.overhead_ms"] = ms(wall) - v.TotalMs

	// The server's compile is opaque from outside: compile the same
	// spec again with the pass timer to split it into layers.
	c, err := compileTraced(t, i, 0, s.gen.spec(warmPlans+i).Source, core.Options{NumProcs: 4}, layer)
	if err != nil {
		return nil, err
	}
	rid, rs := t.open(i, 0, "interp.run")
	res, err := c.RunParallel(core.Timing)
	layer["interp.run_ms"] = ms(t.close(rid, rs))
	if err != nil {
		return nil, err
	}
	if err := servePin.check("", res.Elapsed, res.Report.TotalCommOps(), core.Timing); err != nil {
		return nil, err
	}
	return layer, runLayers(t, i, c, core.Timing, res, servePin, layer)
}

// submitProbes is how many extra jobs finish submits directly, to time
// the wall inside Server.Submit apart from the HTTP layer.
const submitProbes = 16

func (s *serveRunner) finish(attempted int, layer map[string]float64) error {
	defer s.stop()
	misses := s.srv.Metrics().Cache.Misses - s.misses0
	if misses != int64(attempted) {
		return fmt.Errorf("plan cache recorded %d misses for %d jobs; every job must miss once", misses, attempted)
	}
	if layer == nil {
		return nil
	}
	layer["jobs.cache_misses"] = float64(misses)
	layer["jobs.warm_ms"] = s.warmMs
	layer["jobs.warm_plans"] = float64(s.warmed)
	var submit []float64
	for p := 0; p < submitProbes; p++ {
		start := time.Now()
		j, err := s.srv.Submit(s.gen.spec(warmPlans + attempted + p))
		submit = append(submit, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		<-j.Done()
		if err := checkView(j.Snapshot()); err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
	}
	layer["jobs.submit_us"] = median(submit)
	return nil
}

func (s *serveRunner) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Drain(ctx) // every job has been waited for, so nothing is in flight
}
