package interp

import (
	"context"
	"runtime"
	"sync"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/sim"
)

// RunConfig tunes how a parallel execution maps ranks onto goroutines.
type RunConfig struct {
	// Ctx, when non-nil, bounds the run: once it is cancelled (a job
	// deadline, an HTTP client abort) the MPI world is cancelled and
	// every rank unwinds with an mpi.ErrCancelled error instead of
	// running — or blocking — forever. Nil means no external bound,
	// exactly the pre-context behavior.
	Ctx context.Context
	// Workers bounds the number of rank goroutines executing
	// concurrently. Ranks blocked inside the runtime (receive waits,
	// collective rendezvous, contended window locks) park and release
	// their slot, so P ranks need only min(P, Workers) goroutine slots
	// plus the parked residue — the memory and scheduler pressure of a
	// 1024-rank run stays bounded. Zero (the default) uses
	// runtime.GOMAXPROCS(0); negative disables pooling entirely and
	// launches one free-running goroutine per rank (the pre-pool
	// behavior, kept as the equivalence-test reference). Results are
	// bit-identical across all settings: the pool only decides which
	// runnable goroutine proceeds when, never what it charges.
	Workers int
}

// effectiveWorkers resolves the Workers setting to a concrete pool
// size (callers have already excluded the negative "no pool" case).
func effectiveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// pool is the bounded worker-slot scheduler behind RunConfig.Workers.
// Each rank goroutine is granted a slot before executing
// (mpi.Proc.AwaitSlot) and releases it on exit; a rank blocked inside
// the runtime Parks, giving its slot back, and is made Ready by the
// event that ends its wait. A freed slot is handed directly to the
// ready rank with the lowest (virtual clock, arrival) key — the
// furthest-behind rank resumes first, mirroring the engine's
// deterministic lowest-time-first discipline. That order is a
// throughput heuristic only: virtual results are identical whatever
// order slots are granted in.
type pool struct {
	cl *cluster.Cluster

	mu    sync.Mutex
	free  int
	queue sim.ReadyQueue[chan<- struct{}] // ready ranks without a slot, keyed by virtual clock
}

func newPool(cl *cluster.Cluster, workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	return &pool{cl: cl, free: workers}
}

// Ready implements mpi.Scheduler: it grants the rank on node a free
// slot now, or queues it for the next slot released, and signals wake
// once the rank holds one. The rank's clock is sampled before taking
// the pool lock (the cluster has its own lock; the two are never
// nested). It never blocks: wake has room for the one signal.
func (s *pool) Ready(node int, wake chan<- struct{}) {
	at := s.cl.Clock(node)
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		wake <- struct{}{}
		return
	}
	s.queue.Push(at, wake)
	s.mu.Unlock()
}

// Park implements mpi.Scheduler: a rank blocking inside the runtime
// gives its slot away.
func (s *pool) Park(node int) { s.release() }

// release frees a slot, handing it directly to the longest-behind
// ready rank if any is queued. It never blocks, so it is safe to call
// with runtime-internal locks held (the Park contract).
func (s *pool) release() {
	s.mu.Lock()
	if wake, ok := s.queue.Pop(); ok {
		s.mu.Unlock()
		wake <- struct{}{}
		return
	}
	s.free++
	s.mu.Unlock()
}
