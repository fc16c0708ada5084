package interp

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/mpi"
)

// countingPool is the worker pool with its scheduler calls counted, so
// tests can check that every park is answered by exactly one Ready and
// that the slot count balances.
type countingPool struct {
	*pool
	parks, readies atomic.Int64
}

func (c *countingPool) Park(node int) {
	c.parks.Add(1)
	c.pool.Park(node)
}

func (c *countingPool) Ready(node int, wake chan<- struct{}) {
	c.readies.Add(1)
	c.pool.Ready(node, wake)
}

func (c *countingPool) freeSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.free
}

// handoffWorld builds an n-rank world on a square-ish mesh with a
// counting pool of the given size attached; spec is a fault spec ("" for
// a clean machine).
func handoffWorld(t *testing.T, n, workers int, spec string) (*mpi.World, *countingPool) {
	t.Helper()
	params := cluster.DefaultParams()
	for params.MeshWidth*params.MeshHeight < n {
		params.MeshWidth *= 2
		params.MeshHeight *= 2
	}
	if spec != "" {
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatal(err)
		}
		params.Faults = inj
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(cl)
	s := &countingPool{pool: newPool(cl, workers)}
	w.SetScheduler(s)
	return w, s
}

// runRanks runs body on every rank of w the way RunParallelConfig
// does: a rank waits for its first slot, releases it on exit, and
// departs on error so its peers fail over instead of hanging.
func runRanks(w *mpi.World, s *countingPool, body func(p *mpi.Proc) error) []error {
	errs := make([]error, w.Size())
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := w.Rank(rank)
			p.AwaitSlot()
			defer s.release()
			if errs[rank] = body(p); errs[rank] != nil {
				w.Depart(rank)
			}
		}(r)
	}
	wg.Wait()
	return errs
}

// checkBalanced asserts the hand-off's bookkeeping after a run: every
// slot is free again, and every park was answered by exactly one
// Ready (the remaining Ready calls are the ranks' first slots).
func checkBalanced(t *testing.T, tag string, w *mpi.World, s *countingPool, workers int) {
	t.Helper()
	if free := s.freeSlots(); free != workers {
		t.Errorf("%s: %d free slots after the run, want %d", tag, free, workers)
	}
	if r, p := s.readies.Load(), s.parks.Load(); r != p+int64(w.Size()) {
		t.Errorf("%s: %d Ready calls for %d parks and %d rank starts", tag, r, p, w.Size())
	}
}

// A 1024-rank barrier loop completes at every pool size, from a single
// slot up to GOMAXPROCS, with every clock released to the same time.
func TestHandoffBarrierLoop1024(t *testing.T) {
	const n, rounds = 1024, 5
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		w, s := handoffWorld(t, n, workers, "")
		errs := runRanks(w, s, func(p *mpi.Proc) error {
			for i := 0; i < rounds; i++ {
				if err := p.BarrierE(); err != nil {
					return err
				}
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d rank %d: %v", workers, r, err)
			}
		}
		want := rounds * w.BarrierCost()
		for r := 0; r < n; r++ {
			if got := w.Cluster().Clock(r); got != want {
				t.Fatalf("workers=%d rank %d: clock %v, want %v", workers, r, got, want)
			}
		}
		if p := s.parks.Load(); p != rounds*(n-1) {
			t.Errorf("workers=%d: %d parks, want one per waiter per barrier (%d)", workers, p, rounds*(n-1))
		}
		checkBalanced(t, "barrier loop", w, s, workers)
	}
}

// Cancel reaches ranks that are all parked — every rank but one in a
// barrier, the last in a receive that can never match — through a
// single worker slot: each returns ErrCancelled, and no goroutine is
// left behind.
func TestHandoffCancelParkedRendezvous(t *testing.T) {
	const n = 64
	before := runtime.NumGoroutine()
	w, s := handoffWorld(t, n, 1, "")
	go func() {
		for s.parks.Load() < n {
			time.Sleep(time.Millisecond)
		}
		w.Cancel()
	}()
	errs := runRanks(w, s, func(p *mpi.Proc) error {
		if p.Rank() == n-1 {
			_, err := p.RecvE(0, 7)
			return err
		}
		return p.BarrierE()
	})
	w.Shutdown()
	for r, err := range errs {
		var me *mpi.Error
		if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
			t.Errorf("rank %d: %v, want an mpi.Error of kind cancelled", r, err)
		}
	}
	checkBalanced(t, "cancel", w, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// The deadline watchdog readies every parked rank on each tick; a rank
// whose wall-clock budget has not run out parks again, and once its
// peer arrives the barrier completes with the slots balanced.
func TestHandoffWatchdogRepark(t *testing.T) {
	const workers = 2
	w, s := handoffWorld(t, 2, workers, "deadline=1ms")
	errs := runRanks(w, s, func(p *mpi.Proc) error {
		if p.Rank() == 1 {
			// Arrive only after rank 0 has parked and been re-parked
			// by at least three watchdog ticks.
			for s.parks.Load() < 4 {
				time.Sleep(5 * time.Millisecond)
			}
		}
		return p.BarrierE()
	})
	w.Shutdown()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got := w.Cluster().Clock(0); got != w.BarrierCost() {
		t.Errorf("clock %v after one barrier, want %v", got, w.BarrierCost())
	}
	if w.Cluster().Clock(1) != w.Cluster().Clock(0) {
		t.Errorf("clocks %v and %v differ after the barrier", w.Cluster().Clock(0), w.Cluster().Clock(1))
	}
	checkBalanced(t, "watchdog", w, s, workers)
}

// BenchmarkBarrier1024 measures one 1024-rank barrier through the
// worker pool (GOMAXPROCS slots): the rank-scheduling layer alone,
// with no interpreter work between rendezvous. The ranks' start-up and
// a first barrier run before the timer is reset.
func BenchmarkBarrier1024(b *testing.B) {
	const n = 1024
	params := cluster.DefaultParams()
	params.MeshWidth, params.MeshHeight = 32, 32
	cl, err := cluster.New(n, params)
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(cl)
	s := newPool(cl, effectiveWorkers(0))
	w.SetScheduler(s)
	warm, timed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := w.Rank(rank)
			p.AwaitSlot()
			defer s.release()
			p.Barrier()
			if rank == 0 {
				close(warm)
				<-timed
			}
			for i := 0; i < b.N; i++ {
				p.Barrier()
			}
		}(r)
	}
	<-warm
	b.ReportAllocs()
	b.ResetTimer()
	close(timed)
	wg.Wait()
}
