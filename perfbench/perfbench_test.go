package main

import (
	"strings"
	"testing"
	"time"

	"vbuscluster/internal/core"
	"vbuscluster/internal/jobs"
	"vbuscluster/internal/sim"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6}
	for _, c := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{ten, 0.1, 1},
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 1, 10},
		{[]float64{4}, 0.5, 4},
		{[]float64{4}, 0.9, 4},
		{[]float64{2, 1}, 0.5, 1},
		{[]float64{2, 1}, 0.51, 2},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.in, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.p, got, c.want)
		}
	}
	if ten[0] != 7 {
		t.Errorf("quantile sorted its input in place: %v", ten)
	}
}

func TestVariantsDeterministic(t *testing.T) {
	a, b, other := newVariants(42), newVariants(42), newVariants(43)
	same := 0
	for i := 0; i < 64; i++ {
		if a.spec(i) != b.spec(i) {
			t.Fatalf("seed 42 gave two different specs for job %d", i)
		}
		if a.k(i) == other.k(i) {
			same++
		}
	}
	if same == 64 {
		t.Errorf("seeds 42 and 43 generated the same job stream")
	}
}

func TestVariantsCycleIsDistinct(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 12345, 1 << 40} {
		v := newVariants(seed)
		seen := make([]bool, variantSpan)
		for i := 0; i < variantSpan; i++ {
			k := v.k(i)
			if seen[k] {
				t.Fatalf("seed %d: job %d repeats literal offset %d", seed, i, k)
			}
			seen[k] = true
		}
	}
}

// TestVariantsDistinctKeysEqualWork checks that seeded jobs have their
// own plan keys but compile to the same plan shape and run the same
// simulated work.
func TestVariantsDistinctKeysEqualWork(t *testing.T) {
	v := newVariants(9)
	keys := map[string]int{}
	var report string
	for i := 0; i < 40; i++ {
		sp := v.spec(i)
		if len(sp.Source) != len(swimBase) {
			t.Fatalf("job %d source is %d bytes, base is %d", i, len(sp.Source), len(swimBase))
		}
		key := jobs.PlanKey(sp)
		if j, ok := keys[key]; ok {
			t.Fatalf("jobs %d and %d share plan key %s", j, i, key)
		}
		keys[key] = i
		if i%8 != 0 {
			continue
		}
		pt := &core.PassTrace{}
		c, err := core.Compile(sp.Source, core.Options{NumProcs: 4, Trace: pt})
		if err != nil {
			t.Fatal(err)
		}
		var notes []string
		for _, r := range pt.Records {
			notes = append(notes, r.Name+":"+r.Note)
		}
		got := c.Report() + strings.Join(notes, "\n")
		if report == "" {
			report = got
		} else if got != report {
			t.Errorf("job %d compiles to a different plan:\n%s\nwant:\n%s", i, got, report)
		}
		res, err := c.RunParallel(core.Timing)
		if err != nil {
			t.Fatal(err)
		}
		if err := servePin.check("", res.Elapsed, res.Report.TotalCommOps(), core.Timing); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func TestPinCheckRejectsCorruption(t *testing.T) {
	p := mmFullPin
	if err := p.check(" "+p.output+"\n", p.virtual, p.commOps, core.Full); err != nil {
		t.Fatalf("pinned values rejected: %v", err)
	}
	for name, c := range map[string]struct {
		output  string
		virtual sim.Time
		ops     int64
	}{
		"output":   {"21.8203125 -42.1640624", p.virtual, p.commOps},
		"missing":  {"", p.virtual, p.commOps},
		"makespan": {p.output, p.virtual + 1, p.commOps},
		"comm ops": {p.output, p.virtual, p.commOps - 1},
	} {
		if err := p.check(c.output, c.virtual, c.ops, core.Full); err == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
	q := mm1024Pin
	if err := q.check("", q.virtual, q.commOps, core.Timing); err != nil {
		t.Fatalf("pinned 1024-rank values rejected: %v", err)
	}
	if err := q.check("", q.virtual-1, q.commOps, core.Timing); err == nil {
		t.Errorf("corrupted 1024-rank makespan accepted")
	}
}

func TestCheckViewRejectsCorruption(t *testing.T) {
	good := jobs.View{ID: "j-1", State: jobs.StateDone, VirtualSeconds: servePin.virtual.Seconds()}
	if err := checkView(good); err != nil {
		t.Fatalf("good view rejected: %v", err)
	}
	bad := map[string]func(v *jobs.View){
		"failed":    func(v *jobs.View) { v.State = jobs.StateFailed },
		"cache hit": func(v *jobs.View) { v.CacheHit = true },
		"makespan":  func(v *jobs.View) { v.VirtualSeconds *= 1.0000001 },
	}
	for name, corrupt := range bad {
		v := good
		corrupt(&v)
		if err := checkView(v); err == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
}

// TestWorkloadsEndToEnd sets each workload up once and runs one plain
// and one traced job through it.
func TestWorkloadsEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.reference != nil {
				if err := w.reference(); err != nil {
					t.Fatal(err)
				}
			}
			rn, err := w.setup(5)
			if err != nil {
				t.Fatal(err)
			}
			if err := rn.run(0); err != nil {
				t.Fatal(err)
			}
			layer, err := rn.traced(newTracer(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"core.compile_ms", "f77.parse_ms", "interp.run_ms", "mpi.comm_ops", "trace.events"} {
				if layer[k] <= 0 {
					t.Errorf("%s = %v, want > 0", k, layer[k])
				}
			}
			counts := map[string]float64{}
			if err := rn.finish(2, counts); err != nil {
				t.Fatal(err)
			}
			if w.name == "serve-cold" && (counts["jobs.warm_plans"] != warmPlans || counts["jobs.cache_misses"] != 2) {
				t.Errorf("serve counts %v", counts)
			}
		})
	}
}

// TestShortRuns drives both kinds of run on the two-client workload,
// so the race detector sees the closed loop and the traced replay.
func TestShortRuns(t *testing.T) {
	w := &workloads[2]
	res, err := endToEnd(w, 3, 300*time.Millisecond, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != 5 {
		t.Fatalf("end-to-end result %+v", res)
	}
	for k, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
	res, tr, err := perLayer(w, 3, 600*time.Millisecond, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(layerUnits) {
		t.Fatalf("per-layer result correct=%v failed=%d with %d metrics", res.Correct, res.Failed, len(res.Metrics))
	}
	if res.Metrics["jobs.warm_plans"].Value != warmPlans || res.Metrics["mpi.comm_ops"].Value != float64(servePin.commOps) {
		t.Errorf("exact counts: %+v", res.Metrics)
	}
	jobsTraced := map[int]bool{}
	for _, s := range tr.spans {
		if s.EndUs < s.StartUs {
			t.Errorf("span %+v ends before it starts", s)
		}
		jobsTraced[s.Job] = true
	}
	if float64(len(jobsTraced)) != res.Metrics["bench.traced_jobs"].Value {
		t.Errorf("spans cover %d jobs, bench.traced_jobs = %v", len(jobsTraced), res.Metrics["bench.traced_jobs"].Value)
	}
}
