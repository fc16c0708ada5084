package interp

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// Result is the outcome of one program execution.
type Result struct {
	// Report is the cluster accounting snapshot (virtual clocks, comm
	// time, bytes).
	Report cluster.Report
	// Elapsed is the makespan in virtual time.
	Elapsed sim.Time
	// Mem is the master's final memory, keyed by symbol name.
	Mem map[string][]float64
	// Output is what the program printed (master only).
	Output string
	// Regions is the per-region profile of a parallel run (nil for
	// sequential runs) — the §5.6 "profiling tools [20]" capability
	// that guides granularity selection: wall virtual time and data
	// communication per region.
	Regions []RegionStat
	// Checkpoints counts the coordinated checkpoints a resilient run
	// committed (zero for RunSequential/RunParallel).
	Checkpoints int
	// Recoveries counts the shrink-and-replay rounds a resilient run
	// survived (zero for RunSequential/RunParallel).
	Recoveries int
}

// RegionStat profiles one SPMD region.
type RegionStat struct {
	// Index is the region's position in postpass.Program.Regions.
	Index int
	// Parallel reports whether this was a partitioned region.
	Parallel bool
	// LoopVar names the parallel loop's index variable ("" for
	// sequential regions).
	LoopVar string
	// Line is the source line of the region's first statement.
	Line int
	// Elapsed is the virtual wall time the region took (clocks are
	// reconciled at region boundaries, so this is exact).
	Elapsed sim.Time
	// Comm is the data scattering/collecting time the region charged,
	// summed over ranks.
	Comm sim.Time
}

// String renders a profile table.
func FormatRegions(stats []RegionStat) string {
	var sb strings.Builder
	sb.WriteString("region  kind        line  elapsed       comm\n")
	for _, r := range stats {
		kind := "sequential"
		if r.Parallel {
			kind = "DO " + r.LoopVar
		}
		fmt.Fprintf(&sb, "%-7d %-11s %-5d %-13v %v\n", r.Index, kind, r.Line, r.Elapsed, r.Comm)
	}
	return sb.String()
}

// recoverRun converts interpreter panics into errors; STOP is clean
// termination. Structured MPI fault errors (timeouts, crashes under
// fault injection) propagate as the run's error.
func recoverRun(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(stopSignal); ok {
			return
		}
		if re, ok := r.(runtimeError); ok {
			*err = re.err
			return
		}
		if me, ok := r.(*mpi.Error); ok {
			*err = me
			return
		}
		panic(r)
	}
}

// RunSequential executes the plan's main unit on a single processor —
// the paper's sequential baseline for speedup measurements. The
// cluster must have exactly one process.
func RunSequential(plan *Plan, cl *cluster.Cluster, mode Mode) (*Result, error) {
	if cl.N() != 1 {
		return nil, fmt.Errorf("interp: sequential run needs a 1-process cluster, got %d", cl.N())
	}
	if plan.main == nil {
		return nil, fmt.Errorf("interp: program has no main unit")
	}
	var out bytes.Buffer
	env, err := newEnv(plan, cl, 0, mode, &out)
	if err != nil {
		return nil, err
	}
	err = func() (err error) {
		defer recoverRun(&err)
		env.applyDataInits(plan.main)
		env.runBody(plan.main)
		return nil
	}()
	if err != nil {
		return nil, err
	}
	env.flush()
	rep := cl.Snapshot()
	return &Result{
		Report:  rep,
		Elapsed: rep.ElapsedVirtual(),
		Mem:     env.takeMem(),
		Output:  out.String(),
	}, nil
}

// RunParallel executes the plan's SPMD translation on the cluster with
// the default run configuration: rank goroutines multiplexed over a
// GOMAXPROCS-sized worker pool, master/slave execution with
// scatter/fence/compute/collect/fence per parallel region (§3, §5.4,
// §5.5).
func RunParallel(plan *Plan, cl *cluster.Cluster, mode Mode) (*Result, error) {
	return RunParallelConfig(plan, cl, mode, RunConfig{})
}

// RunParallelConfig is RunParallel with an explicit run configuration
// (worker-pool sizing; see RunConfig).
func RunParallelConfig(plan *Plan, cl *cluster.Cluster, mode Mode, cfg RunConfig) (*Result, error) {
	pp := plan.spmd
	if pp == nil {
		return nil, fmt.Errorf("interp: parallel run needs a plan lowered from an SPMD translation")
	}
	P := cl.N()
	if P != pp.Opts.NumProcs {
		return nil, fmt.Errorf("interp: program compiled for %d procs, cluster has %d", pp.Opts.NumProcs, P)
	}
	world := mpi.NewWorld(cl)
	defer world.Shutdown()
	var sched *pool
	if cfg.Workers >= 0 {
		sched = newPool(cl, effectiveWorkers(cfg.Workers))
		world.SetScheduler(sched)
	}
	if cfg.Ctx != nil {
		// A context that is already dead cancels the world before any
		// rank starts: a fast run must not finish ahead of the monitor.
		if cfg.Ctx.Err() != nil {
			world.Cancel()
		}
		// Context monitor: translate an external cancellation into a
		// world cancel so blocked and computing ranks both unwind. The
		// monitor itself exits when the run completes.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cfg.Ctx.Done():
				world.Cancel()
			case <-stop:
			}
		}()
	}
	var out bytes.Buffer

	envs := make([]*Env, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for r := 0; r < P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := world.Rank(rank)
			if sched != nil {
				// Hold a worker slot while runnable; release runs
				// before wg.Done (LIFO), after any Depart below.
				p.AwaitSlot()
				defer sched.release()
			}
			errs[rank] = runRank(plan, p, mode, &out, &envs[rank])
			if errs[rank] != nil {
				// A rank that dies on an error must not strand its
				// peers in a rendezvous: mark it departed so blocked
				// operations fail over to structured errors.
				world.Depart(rank)
			}
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	rep := cl.Snapshot()
	return &Result{
		Report:  rep,
		Elapsed: rep.ElapsedVirtual(),
		Mem:     envs[0].takeMem(),
		Output:  out.String(),
		Regions: envs[0].regionStats,
	}, nil
}

func runRank(plan *Plan, p *mpi.Proc, mode Mode, masterOut *bytes.Buffer, envOut **Env) (err error) {
	defer recoverRun(&err)
	pp := plan.spmd
	var sink *bytes.Buffer
	if p.Rank() == 0 {
		sink = masterOut
	} else {
		sink = &bytes.Buffer{} // slaves' prints are discarded
	}
	env, err := newEnv(plan, p.World().Cluster(), p.Rank(), mode, sink)
	if err != nil {
		return err
	}
	env.world = p.World()
	*envOut = env
	if p.Rank() == 0 {
		// "the master initially holds all program data objects".
		env.applyDataInits(plan.main)
	}

	// §5.1 MPI environment generation: windows over every remotely
	// accessed variable.
	wins := map[*f77.Symbol]*mpi.Win{}
	for _, sym := range pp.Windows {
		wins[sym] = p.WinCreate(sym.Name, env.winBacking(sym))
	}
	// Lock-based reductions merge through dedicated one-cell windows
	// (separate from the live scalar, which the owning rank keeps
	// updating during the partitioned loop).
	redWins := map[*f77.Symbol]*mpi.Win{}
	if pp.Opts.LockReductions {
		seen := map[*f77.Symbol]bool{}
		for _, region := range pp.Regions {
			if region.Par == nil {
				continue
			}
			for _, red := range region.Par.Reductions {
				if !seen[red.Sym] {
					seen[red.Sym] = true
					redWins[red.Sym] = p.WinCreate(red.Sym.Name+"$RED", make([]float64, 1))
				}
			}
		}
	}

	// Programs containing STOP need the master's halt decision shared
	// with the slaves after each sequential section; STOP-free programs
	// (all the benchmarks) skip the extra broadcast.
	hasStop := plan.hasStop

	halted := false
	for ri, region := range pp.Regions {
		env.checkCancelled()
		var startClock, startComm sim.Time
		if p.Rank() == 0 {
			startClock = env.cl.Clock(0)
			startComm = env.cl.Snapshot().TotalXferTime()
		}
		recordRegion := func() {
			if p.Rank() != 0 {
				return
			}
			st := RegionStat{Index: ri, Parallel: region.Par != nil}
			if region.Par != nil {
				st.LoopVar = region.Par.Loop.Var.Name
				st.Line = region.Par.Loop.Line()
			} else if len(region.Stmts) > 0 {
				st.Line = region.Stmts[0].Line()
			}
			st.Elapsed = env.cl.Clock(0) - startClock
			st.Comm = env.cl.Snapshot().TotalXferTime() - startComm
			env.regionStats = append(env.regionStats, st)
		}
		if region.Par == nil {
			// Sequential section: "the master executes all sequential
			// sections... slaves wait at barriers".
			if p.Rank() == 0 && !halted {
				if c, _ := plan.regions[ri].stmts.run(env); c == ctrlStop {
					halted = true
				}
			}
			env.flush()
			p.Barrier()
			if hasStop {
				flag := 0.0
				if halted {
					flag = 1
				}
				if got := p.Bcast(0, []float64{flag}); got[0] != 0 {
					halted = true
				}
			}
			recordRegion()
			continue
		}
		if halted {
			// Everyone agreed to halt; the remaining regions are
			// skipped, with the region's three barriers kept so clocks
			// stay reconciled.
			env.flush()
			p.Barrier()
			p.Barrier()
			p.Barrier()
			continue
		}
		if err := env.runParRegion(pp, region.Par, plan.regions[ri].par, p, wins, redWins); err != nil {
			return err
		}
		recordRegion()
	}
	env.flush()
	return nil
}

// runParRegion executes one parallel region: barrier, scatter+fence,
// partitioned loop, reduction combine, collect+fence.
func (env *Env) runParRegion(pp *postpass.Program, par *postpass.ParInfo, loop *loopCode, p *mpi.Proc, wins, redWins map[*f77.Symbol]*mpi.Win) error {
	P := p.Size()
	env.flush()
	p.Barrier()

	// ---- Reductions: every rank accumulates into a private partial
	// starting from the identity; the master's sequential prior value
	// is folded back in at the combine. With lock-based combining the
	// master seeds the shared cell now — before the scatter fence, so
	// every slave's later critical section is ordered after it.
	var reds []redState
	for _, red := range par.Reductions {
		buf := env.storage(red.Sym, par.Loop.Line())
		reds = append(reds, redState{red: red, pre: buf[0]})
		buf[0] = reductionIdentity(red.Op)
		if pp.Opts.LockReductions && p.Rank() == 0 {
			// Seed with the prior value so the cell accumulates
			// pre op partial_0 op ... op partial_{P-1}.
			redWins[red.Sym].Local(0)[0] = reds[len(reds)-1].pre
		}
	}

	// ---- Data scattering (§5.4): master → slaves.
	if pp.Opts.TwoSided {
		// MPI-1 baseline: explicit SEND on the master matched by
		// RECEIVE on each slave (both processors involved).
		if p.Rank() == 0 {
			for dst := 1; dst < P; dst++ {
				env.sendOps(p, par, par.Scatters, dst, dst)
			}
		} else {
			env.recvOps(p, par, par.Scatters, p.Rank(), p.Rank())
		}
	} else if pp.Opts.PullScatter {
		// One-sided pull: each slave GETs its own regions concurrently.
		if p.Rank() != 0 {
			env.pullOps(p, wins, par, par.Scatters, p.Rank())
		}
	} else if p.Rank() == 0 {
		for dst := 1; dst < P; dst++ {
			env.transferOps(p, wins, par, par.Scatters, dst, true)
		}
	}
	env.flush()
	p.Barrier() // fence: all scatters land before compute

	// ---- Partitioned execution (§5.3).
	trips := par.Ctx.Trips()
	myTrips := postpass.RankTrips(trips, p.Rank(), P, par.Schedule)
	env.runPartition(loop, par.Ctx, myTrips)

	// ---- Combine reductions.
	if len(reds) > 0 {
		env.flush()
		if pp.Opts.LockReductions {
			env.combineReductionsLocked(par, p, redWins, reds)
		} else {
			contrib := make([]float64, len(reds))
			for i, rs := range reds {
				partial := env.storage(rs.red.Sym, 0)[0]
				if p.Rank() == 0 {
					partial = applyReduction(rs.red.Op, rs.pre, partial)
				}
				contrib[i] = partial
			}
			total := p.Allreduce(mpiOp(reds), contrib)
			for i, rs := range reds {
				env.storage(rs.red.Sym, 0)[0] = total[i]
			}
		}
	}

	// ---- Data collecting (§5.4): slaves → master.
	env.flush()
	if pp.Opts.TwoSided {
		if p.Rank() != 0 {
			env.sendOps(p, par, par.Collects, p.Rank(), p.Rank())
		} else {
			for src := 1; src < P; src++ {
				env.recvOps(p, par, par.Collects, src, src)
			}
		}
	} else if p.Rank() != 0 {
		env.transferOps(p, wins, par, par.Collects, p.Rank(), false)
	}
	env.flush()
	p.Barrier() // fence: all collects land before the master continues
	return nil
}

// redState pairs a recognized reduction with the master's sequential
// prior value.
type redState struct {
	red *f77.Reduction
	pre float64
}

// combineReductionsLocked is the paper's §3 lock-based scheme: every
// rank (master included) merges its partial into a shared one-cell
// window on the master inside an MPI_WIN_LOCK critical section; the
// combined value is then broadcast over the V-Bus. The cell was seeded
// with the master's sequential prior value before the scatter fence.
func (env *Env) combineReductionsLocked(par *postpass.ParInfo, p *mpi.Proc, redWins map[*f77.Symbol]*mpi.Win, reds []redState) {
	for _, rs := range reds {
		win := redWins[rs.red.Sym]
		if win == nil {
			env.fail(par.Loop.Line(), "no reduction window for %s", rs.red.Sym.Name)
		}
		partial := env.storage(rs.red.Sym, 0)[0]
		tmp := make([]float64, 1)
		p.Lock(win, 0)
		p.Get(win, 0, 0, tmp)
		tmp[0] = applyReduction(rs.red.Op, tmp[0], partial)
		p.Put(win, 0, 0, tmp)
		p.Unlock(win, 0)
	}
	env.flush()
	p.Barrier() // all critical sections complete
	// Publish the combined value to every rank via the V-Bus broadcast.
	contrib := make([]float64, len(reds))
	if p.Rank() == 0 {
		for i, rs := range reds {
			contrib[i] = redWins[rs.red.Sym].Local(0)[0]
		}
	}
	total := p.Bcast(0, contrib)
	for i, rs := range reds {
		env.storage(rs.red.Sym, 0)[0] = total[i]
	}
}

// mpiOp maps the (homogeneous) reduction list onto an MPI op. The
// front end groups only identical operators per loop; mixing is a bug
// caught here.
func mpiOp(reds []redState) mpi.Op {
	op := reds[0].red.Op
	for _, r := range reds[1:] {
		if r.red.Op != op {
			panic(runtimeError{fmt.Errorf("interp: mixed reduction operators in one region")})
		}
	}
	switch op {
	case "+":
		return mpi.Sum
	case "*":
		return mpi.Prod
	case "MAX":
		return mpi.Max
	case "MIN":
		return mpi.Min
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

func reductionIdentity(op string) float64 {
	switch op {
	case "+":
		return 0
	case "*":
		return 1
	case "MAX":
		return -1.7976931348623157e308
	case "MIN":
		return 1.7976931348623157e308
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

func applyReduction(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "*":
		return a * b
	case "MAX":
		if a > b {
			return a
		}
		return b
	case "MIN":
		if a < b {
			return a
		}
		return b
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

// runPartition executes (or bulk-charges) the rank's share of a
// parallel loop under the region's schedule.
func (env *Env) runPartition(loop *loopCode, ctx analysis.LoopCtx, myTrips []int64) {
	env.charge(3 * env.cpu.IntOpTime)
	v := env.buf(loop.v, loop.line)
	defer func() { v[0] = float64(ctx.From + ctx.Trips()*ctx.Step) }()
	if len(myTrips) == 0 {
		return
	}
	// The generated SPMD code computes rank-dependent bounds and
	// offsets: slightly costlier per iteration, at every nest level,
	// than the original sequential loops.
	env.spmdTax = env.cpu.SPMDIterOverhead
	defer func() { env.spmdTax = 0 }()
	iterCost := env.cpu.LoopOverhead + env.spmdTax
	if env.mode == Timing && loop.bulk != nil {
		if !loop.bulk.varDep {
			v[0] = float64(ctx.From)
			per := iterCost + loop.bodyCost(env)
			env.charge(sim.Time(len(myTrips)) * per)
			return
		}
		var total sim.Time
		for _, k := range myTrips {
			env.checkCancelled()
			v[0] = float64(ctx.From + k*ctx.Step)
			total += iterCost + loop.bodyCost(env)
		}
		env.charge(total)
		return
	}
	for _, k := range myTrips {
		env.checkCancelled()
		v[0] = float64(ctx.From + k*ctx.Step)
		env.charge(iterCost)
		c, _ := loop.body.run(env)
		if c != ctrlNormal {
			env.fail(loop.line, "control transfer out of a parallel loop")
		}
	}
}

// transferOps performs (or, in timing mode, charges) the rank's plans
// of all ops in one direction. scatter=true moves master→rank;
// otherwise the calling slave moves its regions to the master.
// Coarse-grain plans of the same array merge across ops into the "one
// big approximate region" of Figure 9(d).
func (env *Env) transferOps(p *mpi.Proc, wins map[*f77.Symbol]*mpi.Win, par *postpass.ParInfo, ops []*postpass.CommOp, rank int, scatter bool) {
	target := 0 // collects go to the master
	if scatter {
		target = rank
	}
	coarse := map[*f77.Symbol][]lmad.Transfer{}
	var coarseOrder []*f77.Symbol
	for _, op := range ops {
		plan := postpass.RankPlan(op, par.Ctx, rank, p.Size(), par.Schedule)
		if op.Grain == lmad.Coarse {
			if _, seen := coarse[op.Sym]; !seen {
				coarseOrder = append(coarseOrder, op.Sym)
			}
			coarse[op.Sym] = append(coarse[op.Sym], plan...)
			continue
		}
		env.execTransfers(p, wins[op.Sym], op.Sym, plan, target)
	}
	thr := rndvThreshold(ops)
	for _, sym := range coarseOrder {
		env.execTransfers(p, wins[sym], sym,
			lmad.MarkRendezvous(lmad.MergeContiguous(coarse[sym]), thr), target)
	}
}

// rndvThreshold is the eager/rendezvous stamp threshold to re-apply
// after coarse plans merge across ops: merging can grow a transfer past
// its pre-merge stamp, so the merged plan is re-stamped. The threshold
// is machine-global (every op of a coalesced compile carries the same
// value; unstamped ops carry 0), so the max over the list recovers it.
func rndvThreshold(ops []*postpass.CommOp) int64 {
	var thr int64
	for _, op := range ops {
		if op.RndvThreshold > thr {
			thr = op.RndvThreshold
		}
	}
	return thr
}

// rankPlans enumerates the per-op plans of one rank in deterministic
// order, with coarse-grain plans merged per array — the shared plan
// shape used by both the one-sided and two-sided paths (the two sides
// of a SEND/RECEIVE pair must enumerate identically).
func rankPlans(p *mpi.Proc, par *postpass.ParInfo, ops []*postpass.CommOp, rank int) []struct {
	sym  *f77.Symbol
	plan []lmad.Transfer
} {
	var out []struct {
		sym  *f77.Symbol
		plan []lmad.Transfer
	}
	coarse := map[*f77.Symbol][]lmad.Transfer{}
	var coarseOrder []*f77.Symbol
	for _, op := range ops {
		plan := postpass.RankPlan(op, par.Ctx, rank, p.Size(), par.Schedule)
		if op.Grain == lmad.Coarse {
			if _, seen := coarse[op.Sym]; !seen {
				coarseOrder = append(coarseOrder, op.Sym)
			}
			coarse[op.Sym] = append(coarse[op.Sym], plan...)
			continue
		}
		out = append(out, struct {
			sym  *f77.Symbol
			plan []lmad.Transfer
		}{op.Sym, plan})
	}
	thr := rndvThreshold(ops)
	for _, sym := range coarseOrder {
		out = append(out, struct {
			sym  *f77.Symbol
			plan []lmad.Transfer
		}{sym, lmad.MarkRendezvous(lmad.MergeContiguous(coarse[sym]), thr)})
	}
	return out
}

// sendOps is the two-sided sending half: pack each transfer of rank's
// plan and SEND it (tag identifies the peer pairing).
func (env *Env) sendOps(p *mpi.Proc, par *postpass.ParInfo, ops []*postpass.CommOp, rank, tag int) {
	for _, pl := range rankPlans(p, par, ops, rank) {
		dst := 0
		if p.Rank() == 0 {
			dst = rank
		}
		for _, tr := range pl.plan {
			if env.mode == Timing {
				p.SendRegion(dst, tag, int(tr.Elems), nil)
				continue
			}
			src := env.storage(pl.sym, 0)
			payload := make([]float64, tr.Elems)
			for i := range payload {
				payload[i] = src[tr.Offset+int64(i)*tr.Stride]
			}
			p.SendRegion(dst, tag, int(tr.Elems), payload)
		}
	}
}

// recvOps is the matching receiving half: receive each transfer of
// rank's plan (enumerated identically) and unpack it into storage.
func (env *Env) recvOps(p *mpi.Proc, par *postpass.ParInfo, ops []*postpass.CommOp, rank, tag int) {
	from := 0
	if p.Rank() == 0 {
		from = rank
	}
	for _, pl := range rankPlans(p, par, ops, rank) {
		for _, tr := range pl.plan {
			payload := p.RecvRegion(from, tag, int(tr.Elems))
			if env.mode == Timing || len(payload) == 0 {
				continue
			}
			buf := env.storage(pl.sym, 0)
			for i, v := range payload {
				buf[tr.Offset+int64(i)*tr.Stride] = v
			}
		}
	}
}

// pullOps is the GET-driven scatter: the calling slave fetches its
// plan's regions from the master's window into its own storage.
func (env *Env) pullOps(p *mpi.Proc, wins map[*f77.Symbol]*mpi.Win, par *postpass.ParInfo, ops []*postpass.CommOp, rank int) {
	for _, pl := range rankPlans(p, par, ops, rank) {
		win := wins[pl.sym]
		for _, tr := range pl.plan {
			d := mpi.DescFromTransfer(tr)
			d.Region = pl.sym.Name
			if env.mode == Timing {
				p.ChargePutD(0, d)
				continue
			}
			dst := env.storage(pl.sym, 0)
			if tr.Stride == 1 {
				p.GetD(win, 0, d, dst[tr.Offset:tr.Offset+tr.Elems])
			} else {
				tmp := make([]float64, tr.Elems)
				p.GetD(win, 0, d, tmp)
				for i, v := range tmp {
					dst[tr.Offset+int64(i)*tr.Stride] = v
				}
			}
		}
	}
}

func (env *Env) execTransfers(p *mpi.Proc, win *mpi.Win, sym *f77.Symbol, plan []lmad.Transfer, target int) {
	for _, tr := range plan {
		d := mpi.DescFromTransfer(tr)
		d.Region = sym.Name
		if env.mode == Timing {
			p.ChargePutD(target, d)
			continue
		}
		src := env.storage(sym, 0)
		if tr.Stride == 1 {
			p.PutD(win, target, d, src[tr.Offset:tr.Offset+tr.Elems])
		} else {
			tmp := make([]float64, tr.Elems)
			for i := range tmp {
				tmp[i] = src[tr.Offset+int64(i)*tr.Stride]
			}
			p.PutD(win, target, d, tmp)
		}
	}
}

// SortedArrayNames lists the arrays in a result for deterministic
// comparison output.
func (r *Result) SortedArrayNames() []string {
	names := make([]string, 0, len(r.Mem))
	for n := range r.Mem {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
