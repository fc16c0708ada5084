// Package interp executes compiled programs on the simulated cluster.
// It is the execution half of the reproduction: the same lowered
// program (see Plan) runs
//
//   - the sequential baseline (the inlined, analyzed main unit on one
//     processor), and
//   - the SPMD translation from internal/postpass on P processors over
//     the MPI-2 runtime — master/slave, barriers and fences at region
//     boundaries, data scattering/collecting via window PUTs, exactly
//     the §3/§5 execution model.
//
// Virtual time: every executed statement charges the CPU cost model;
// every MPI call charges the NIC cost model. Two modes exist:
//
//   - Full: every iteration really executes and data really moves —
//     used for correctness verification against a native Go oracle;
//   - Timing: loop nests free of I/O, calls and branches are charged in
//     closed form without executing each iteration, and transfers are
//     charged without copying. Virtual time is identical to Full mode
//     by construction (same cost formulas) for programs whose control
//     flow does not depend on data, which holds for all benchmarks.
package interp

import (
	"fmt"
	"io"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
)

// Mode selects execution fidelity.
type Mode int

// Execution modes.
const (
	// Full executes every iteration and moves real data.
	Full Mode = iota
	// Timing charges virtual time in bulk and skips data movement.
	Timing
)

func (m Mode) String() string {
	if m == Timing {
		return "timing"
	}
	return "full"
}

// Env is one process's execution environment: the rank's storage for
// every slot of the shared Plan, its clock accounting and its output.
type Env struct {
	plan *Plan
	// slots holds each symbol's current storage, indexed by the plan's
	// slot numbers. A nil slot has no storage yet: scalars and
	// lazily deferred arrays allocate on first touch (see bind).
	slots [][]float64

	cl   *cluster.Cluster
	rank int
	cpu  cluster.CPUParams
	mode Mode
	out  io.Writer

	// lazy defers array allocation to first touch. Set on slave ranks
	// in Timing mode, where bulk-charged loops and charge-only
	// transfers never read the arrays: a 1024-rank timing run then
	// allocates the program's arrays once (on the master) instead of
	// 1024 times.
	lazy bool

	// pending accumulates compute charges between flushes so the
	// cluster mutex is not taken per statement.
	pending sim.Time

	// spmdTax is added to every loop iteration while executing a
	// partitioned region: the generated SPMD code's extra address and
	// bound arithmetic (what drags the paper's 1-node speedup to 0.96).
	spmdTax sim.Time

	// regionStats collects the per-region profile on the master.
	regionStats []RegionStat

	// world, set on parallel runs, lets long compute loops observe an
	// external cancellation (World.Cancel) between iterations — MPI
	// calls already check on entry, but a partitioned loop with no
	// communication would otherwise run to completion after its job's
	// deadline expired. Nil for sequential runs.
	world *mpi.World

	// commons backs COMMON blocks: per block, per member-index storage,
	// shared by every unit executed in this env.
	commons map[string][][]float64
}

// runtimeError aborts execution through a panic recovered at the run
// boundary, carrying source context.
type runtimeError struct{ err error }

func (e *Env) fail(line int, format string, args ...any) {
	panic(runtimeError{fmt.Errorf("interp: line %d: %s", line, fmt.Sprintf(format, args...))})
}

// outOfBounds reports a subscript outside an array's storage.
func (e *Env) outOfBounds(name string, idx, size int64, line int) {
	e.fail(line, "%s subscript out of bounds: linear index %d, size %d", name, idx, size)
}

// checkCancelled aborts execution when the run has been cancelled from
// outside (job deadline, explicit abort). The panic carries the same
// structured *mpi.Error the communication layer raises, and recoverRun
// converts it into the run's error. A single atomic load per call —
// uncancelled runs stay bit-identical (no virtual-time charge).
func (e *Env) checkCancelled() {
	if e.world != nil && e.world.Cancelled() {
		panic(&mpi.Error{Kind: mpi.ErrCancelled, Rank: e.rank, Op: "compute", Peer: -1, Time: e.cl.Clock(e.rank)})
	}
}

// newEnv allocates the environment for one rank executing the plan's
// main unit.
func newEnv(plan *Plan, cl *cluster.Cluster, rank int, mode Mode, out io.Writer) (*Env, error) {
	env := &Env{
		plan:    plan,
		slots:   make([][]float64, len(plan.slots)),
		cl:      cl,
		rank:    rank,
		cpu:     cl.Params().CPU,
		mode:    mode,
		out:     out,
		commons: map[string][][]float64{},
	}
	env.lazy = mode == Timing && rank != 0
	if err := env.allocMain(); err != nil {
		return nil, err
	}
	return env, nil
}

// scalarPad is one cache line of float64 words.
const scalarPad = 8

// allocMain allocates storage for every symbol of the main unit. Its
// array bounds must be compile-time constants (the front end inlined
// subroutines into the main unit; adjustable arrays remain only in
// units executed via CALL, which allocate at call time).
//
// The main unit's scalars (loop indices, accumulators: stored on every
// iteration) share one block per rank with a cache line of padding on
// each side. Allocated one by one, they were 8-byte objects that the
// Go allocator packs together, so ranks whose envs were built on the
// same CPU shared cache lines, and two such ranks computing at once
// invalidated each other's lines on every store.
func (env *Env) allocMain() error {
	scalars := make([]float64, len(env.plan.main.frame)+2*scalarPad)
	next := scalarPad
	for _, s := range env.plan.main.frame {
		info := env.plan.slots[s]
		sym := info.sym
		if sym.IsConst || sym.IsArg {
			continue
		}
		if sym.Common != "" {
			buf, err := env.commonSlot(s)
			if err != nil {
				return err
			}
			env.slots[s] = buf
			continue
		}
		// Adjustable or assumed arrays (size 0) are an error caught on
		// first access; lazily deferred arrays allocate on first touch.
		switch size := info.size(); {
		case !sym.IsArray():
			env.slots[s] = scalars[next : next+1 : next+1]
			next++
		case size > 0 && !env.lazy:
			env.slots[s] = make([]float64, size)
		}
	}
	return nil
}

// commonSlot returns (allocating on first sight) the shared storage of
// a COMMON member, enforcing identical element counts across units.
func (env *Env) commonSlot(s int32) ([]float64, error) {
	info := env.plan.slots[s]
	sym := info.sym
	size := info.size()
	if size == 0 {
		return nil, fmt.Errorf("interp: COMMON member %s needs constant bounds", sym.Name)
	}
	members := env.commons[sym.Common]
	for int64(len(members)) <= int64(sym.CommonIndex) {
		members = append(members, nil)
	}
	if members[sym.CommonIndex] == nil {
		members[sym.CommonIndex] = make([]float64, size)
	} else if int64(len(members[sym.CommonIndex])) != size {
		return nil, fmt.Errorf("interp: COMMON /%s/ member %d: %s wants %d elements, block has %d",
			sym.Common, sym.CommonIndex, sym.Name, size, len(members[sym.CommonIndex]))
	}
	env.commons[sym.Common] = members
	return members[sym.CommonIndex], nil
}

// applyDataInits runs a unit's DATA statements into this env.
func (env *Env) applyDataInits(uc *unitCode) {
	for _, di := range uc.data {
		buf := env.buf(di.slot, 0)
		for i, v := range di.vals {
			if i < len(buf) {
				buf[i] = v
			}
		}
	}
}

// buf returns the storage of slot s, binding it on first touch.
func (env *Env) buf(s int32, line int) []float64 {
	if b := env.slots[s]; b != nil {
		return b
	}
	return env.bind(s, line)
}

// bind gives an unbound slot storage: scalars (implicitly declared in
// subroutine frames) and lazily deferred arrays allocate zero-filled,
// exactly as the eager path would have left them.
func (env *Env) bind(s int32, line int) []float64 {
	info := env.plan.slots[s]
	sym := info.sym
	if sym.IsConst {
		env.fail(line, "storage of PARAMETER %s", sym.Name)
	}
	if sym.IsArray() && (sym.IsArg || info.size() == 0) {
		env.fail(line, "array %s has no storage (unbound dummy or non-constant bounds)", sym.Name)
	}
	buf := make([]float64, info.size())
	env.slots[s] = buf
	return buf
}

// slotOf resolves a symbol the SPMD machinery names directly
// (windows, reductions, transfer plans); LowerSPMD gave each a slot.
func (env *Env) slotOf(sym *f77.Symbol, line int) int32 {
	s, ok := env.plan.slotOf[sym]
	if !ok {
		env.fail(line, "%s was not lowered with the program", sym.Name)
	}
	return s
}

// storage returns the storage of a symbol the SPMD machinery names.
func (env *Env) storage(sym *f77.Symbol, line int) []float64 {
	return env.buf(env.slotOf(sym, line), line)
}

// winBacking returns the backing slice a window over sym should
// expose, without forcing a lazily deferred array into existence: a
// Timing-mode slave creates windows for charge accounting only and
// never moves real data through them, so a nil region is fine (the
// mpi layer only dereferences regions on actual data movement).
func (env *Env) winBacking(sym *f77.Symbol) []float64 {
	s := env.slotOf(sym, 0)
	if buf := env.slots[s]; buf != nil || env.lazy {
		return buf
	}
	return env.buf(s, 0)
}

// charge books compute time locally.
func (env *Env) charge(d sim.Time) { env.pending += d }

// flush publishes accumulated compute time to the cluster clock. Must
// run before any MPI call and at run end.
func (env *Env) flush() {
	if env.pending > 0 {
		env.cl.ChargeCompute(env.rank, env.pending)
		env.pending = 0
	}
}

// takeMem hands the env's storage over as a result's memory, keyed by
// symbol name. The env must not run again.
func (env *Env) takeMem() map[string][]float64 {
	out := map[string][]float64{}
	for s, buf := range env.slots {
		if buf != nil {
			out[env.plan.slots[s].sym.Name] = buf
		}
	}
	env.slots = nil
	return out
}
