package interp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vbuscluster/internal/ckpt"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// ResilientConfig configures a checkpoint/restart execution.
type ResilientConfig struct {
	// Retranslate recompiles the postpass for a shrunken rank count
	// after a recovery (the front-end analysis is rank-count
	// independent, so only the SPMD translation reruns).
	Retranslate func(n int) (*postpass.Program, error)
	// Dir, when non-empty, persists every committed checkpoint as
	// epoch-NNN.vbck under this directory (created if missing). Empty
	// keeps checkpoints in memory only — the recovery protocol is
	// identical, nothing touches the filesystem.
	Dir string
	// Workers bounds concurrent rank goroutines exactly as
	// RunConfig.Workers does; each recovery attempt gets a fresh pool.
	Workers int
}

// RunResilient executes the SPMD translation with coordinated
// checkpoint/restart and ULFM-style communicator recovery:
//
//   - the resilience pass grouped the program's regions into epochs;
//     after each epoch every rank joins a CheckpointE quiesce and the
//     master commits a ckpt.Snapshot of the consistent cut;
//   - when a rank crashes (fault injection), the observing rank
//     revokes the communicator so no peer stays blocked, the
//     survivors Agree on the failed set, Shrink to a new communicator
//     with contiguous ranks over the surviving nodes, the program is
//     retranslated for the smaller rank count, and execution replays
//     from the last committed checkpoint (from the start when none
//     was committed yet).
//
// Virtual clocks never rewind: the replayed work, the checkpoint
// rounds and the recovery rounds all show up in the final report, so
// the cost of surviving the crash is measured rather than hidden.
func RunResilient(plan *Plan, cl *cluster.Cluster, mode Mode, cfg ResilientConfig) (*Result, error) {
	pp := plan.spmd
	if pp == nil {
		return nil, fmt.Errorf("interp: resilient run needs a plan lowered from an SPMD translation")
	}
	if cl.N() != pp.Opts.NumProcs {
		return nil, fmt.Errorf("interp: program compiled for %d procs, cluster has %d", pp.Opts.NumProcs, cl.N())
	}
	if pp.Epochs == nil && len(pp.Regions) > 0 {
		return nil, fmt.Errorf("interp: resilient run needs a program compiled with Resilient (no checkpoint epochs)")
	}
	if cfg.Retranslate == nil {
		return nil, fmt.Errorf("interp: resilient run needs a Retranslate hook")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}

	cur := plan
	world := mpi.NewWorld(cl)
	var (
		last        *ckpt.Snapshot // last committed checkpoint
		lastBlob    []byte
		recoveries  int
		checkpoints int
		recovering  bool // charge a RecoverE restore round this attempt
	)
	for {
		P := world.Size()
		var sched *pool
		if cfg.Workers >= 0 {
			// A fresh pool per attempt: a shrunken world re-parks on
			// clean state, and crashed ranks cannot leak slots across
			// attempts.
			sched = newPool(cl, effectiveWorkers(cfg.Workers))
			world.SetScheduler(sched)
		}
		var out bytes.Buffer
		if last != nil {
			out.Write(last.Output)
		}
		st := &epochState{
			snap:    last,
			blobLen: len(lastBlob),
			recover: recovering,
			commit: func(snap *ckpt.Snapshot, blob []byte) error {
				checkpoints++
				last, lastBlob = snap, blob
				if cfg.Dir != "" {
					name := filepath.Join(cfg.Dir, fmt.Sprintf("epoch-%03d.vbck", snap.Epoch))
					return os.WriteFile(name, blob, 0o644)
				}
				return nil
			},
		}
		envs := make([]*Env, P)
		errs := make([]error, P)
		var wg sync.WaitGroup
		for r := 0; r < P; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				p := world.Rank(rank)
				if sched != nil {
					p.AwaitSlot()
					defer sched.release()
				}
				errs[rank] = runRankEpochs(cur, p, mode, &out, &envs[rank], st)
				if errs[rank] != nil {
					// ULFM: the rank observing a failure revokes the
					// communicator so every blocked peer fails over to
					// the recovery path instead of deadlocking, then
					// departs.
					world.Revoke()
					world.Depart(rank)
				}
			}(r)
		}
		wg.Wait()
		firstErr := rootError(errs)
		if firstErr == nil {
			world.Shutdown()
			rep := cl.Snapshot()
			return &Result{
				Report:      rep,
				Elapsed:     rep.ElapsedVirtual(),
				Mem:         envs[0].takeMem(),
				Output:      out.String(),
				Regions:     envs[0].regionStats,
				Recoveries:  recoveries,
				Checkpoints: checkpoints,
			}, nil
		}
		world.Shutdown()
		var me *mpi.Error
		if !errors.As(firstErr, &me) {
			return nil, firstErr // interpreter error, not a rank failure
		}
		failed := world.Agree()
		if len(failed) == 0 {
			return nil, firstErr // no rank actually crashed — propagate
		}
		nw, err := world.Shrink(failed)
		if err != nil {
			return nil, fmt.Errorf("interp: unrecoverable: %v (after %w)", err, firstErr)
		}
		world = nw
		npp, err := cfg.Retranslate(world.Size())
		if err != nil {
			world.Shutdown()
			return nil, fmt.Errorf("interp: retranslate for %d survivors: %w", world.Size(), err)
		}
		cur = LowerSPMD(npp)
		recovering = last != nil
		recoveries++
	}
}

// rootError picks the error to report from one attempt: the root
// cause, not the collateral — revocations and peer-crash observations
// exist only because some other rank failed first.
func rootError(errs []error) error {
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		}
		var me *mpi.Error
		if !errors.As(e, &me) || (me.Kind != mpi.ErrRevoked && me.Kind != mpi.ErrPeerCrashed) {
			return e
		}
	}
	return first
}

// epochState is the per-attempt restart context shared by every rank
// goroutine of one execution attempt.
type epochState struct {
	// snap is the restore point (nil: fresh start from the program
	// beginning).
	snap *ckpt.Snapshot
	// blobLen is the encoded size of snap, the payload RecoverE prices.
	blobLen int
	// recover makes the attempt open with a RecoverE restore round.
	recover bool
	// commit stores a freshly encoded checkpoint; called by rank 0
	// only, strictly after its CheckpointE quiesce succeeded (a crash
	// during the quiesce replays from the previous checkpoint).
	commit func(*ckpt.Snapshot, []byte) error
}

// runRankEpochs is runRank restructured around checkpoint epochs: the
// per-region execution is identical, but regions run epoch by epoch
// with a coordinated checkpoint at every epoch boundary, and the whole
// run may start mid-program from a restored snapshot.
func runRankEpochs(plan *Plan, p *mpi.Proc, mode Mode, masterOut *bytes.Buffer, envOut **Env, st *epochState) (err error) {
	defer recoverRun(&err)
	pp := plan.spmd
	var sink *bytes.Buffer
	if p.Rank() == 0 {
		sink = masterOut // already holds the snapshot's restored output
	} else {
		sink = &bytes.Buffer{}
	}
	env, err := newEnv(plan, p.World().Cluster(), p.Rank(), mode, sink)
	if err != nil {
		return err
	}
	*envOut = env

	halted := false
	startEpoch := 0
	if st.snap != nil {
		startEpoch = st.snap.Epoch
		halted = st.snap.Halted
	}
	if p.Rank() == 0 {
		if st.snap == nil {
			env.applyDataInits(plan.main)
		} else if err := env.restoreSnapshot(st.snap); err != nil {
			return err
		}
	}

	// Restore round: rank 0 reads the snapshot back and republishes the
	// restored state to the survivors (priced, traced on the recovery
	// transport).
	if st.recover {
		size := 0
		if p.Rank() == 0 {
			size = st.blobLen
		}
		if err := p.RecoverE(size); err != nil {
			return err
		}
	}

	wins := map[*f77.Symbol]*mpi.Win{}
	for _, sym := range pp.Windows {
		wins[sym] = p.WinCreate(sym.Name, env.winBacking(sym))
	}
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
	hasStop := plan.hasStop

	for e := startEpoch; e < len(pp.Epochs); e++ {
		for _, ri := range pp.Epochs[e] {
			region := pp.Regions[ri]
			var startClock, startComm sim.Time
			if p.Rank() == 0 {
				startClock = env.cl.Clock(0)
				startComm = env.cl.Snapshot().TotalXferTime()
			}
			recordRegion := func() {
				if p.Rank() != 0 {
					return
				}
				stRec := RegionStat{Index: ri, Parallel: region.Par != nil}
				if region.Par != nil {
					stRec.LoopVar = region.Par.Loop.Var.Name
					stRec.Line = region.Par.Loop.Line()
				} else if len(region.Stmts) > 0 {
					stRec.Line = region.Stmts[0].Line()
				}
				stRec.Elapsed = env.cl.Clock(0) - startClock
				stRec.Comm = env.cl.Snapshot().TotalXferTime() - startComm
				env.regionStats = append(env.regionStats, stRec)
			}
			if region.Par == nil {
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
		if e == len(pp.Epochs)-1 {
			break // the final epoch ends the run; nothing left to protect
		}
		// ---- Coordinated checkpoint at the epoch boundary.
		var snap *ckpt.Snapshot
		var blob []byte
		size := 0
		if p.Rank() == 0 {
			snap = env.buildSnapshot(e+1, halted, p.World().Nodes(), sink)
			blob = snap.Encode()
			size = len(blob)
		}
		if err := p.CheckpointE(size); err != nil {
			return err
		}
		if p.Rank() == 0 {
			// The quiesce advanced every clock; re-stamp them so a
			// restore sees the post-checkpoint cut (same encoded size —
			// the clock section is fixed-width).
			snap.Clocks = clocksOf(env.cl)
			blob = snap.Encode()
			if err := st.commit(snap, blob); err != nil {
				return err
			}
		}
	}
	env.flush()
	return nil
}

// buildSnapshot captures the master's consistent cut at an epoch
// boundary: next epoch to run, halt flag, surviving nodes, all
// physical clocks, accumulated output, region profile and every
// program array by symbol name.
func (env *Env) buildSnapshot(epoch int, halted bool, nodes []int, out *bytes.Buffer) *ckpt.Snapshot {
	s := &ckpt.Snapshot{
		Epoch:  epoch,
		Halted: halted,
		Nodes:  nodes,
		Clocks: clocksOf(env.cl),
		Output: append([]byte(nil), out.Bytes()...),
		Arrays: map[string][]float64{},
	}
	for _, r := range env.regionStats {
		s.Regions = append(s.Regions, ckpt.Region{
			Index: r.Index, Parallel: r.Parallel, LoopVar: r.LoopVar,
			Line: r.Line, Elapsed: r.Elapsed, Comm: r.Comm,
		})
	}
	for i, buf := range env.slots {
		if buf != nil {
			s.Arrays[env.plan.slots[i].sym.Name] = append([]float64(nil), buf...)
		}
	}
	return s
}

// restoreSnapshot loads a checkpoint back into a fresh master env:
// every program array takes its checkpointed values (symbols the
// snapshot does not know stay zero, like a fresh start would leave
// them), and the region profile continues from the checkpointed rows.
func (env *Env) restoreSnapshot(s *ckpt.Snapshot) error {
	for i, buf := range env.slots {
		if buf == nil {
			continue
		}
		name := env.plan.slots[i].sym.Name
		vals, ok := s.Arrays[name]
		if !ok {
			continue
		}
		if len(vals) != len(buf) {
			return fmt.Errorf("interp: checkpoint array %s has %d cells, program needs %d", name, len(vals), len(buf))
		}
		copy(buf, vals)
	}
	env.regionStats = env.regionStats[:0]
	for _, r := range s.Regions {
		env.regionStats = append(env.regionStats, RegionStat{
			Index: r.Index, Parallel: r.Parallel, LoopVar: r.LoopVar,
			Line: r.Line, Elapsed: r.Elapsed, Comm: r.Comm,
		})
	}
	return nil
}

// clocksOf samples every physical node's virtual clock.
func clocksOf(cl *cluster.Cluster) []sim.Time {
	out := make([]sim.Time, cl.N())
	for i := range out {
		out[i] = cl.Clock(i)
	}
	return out
}
