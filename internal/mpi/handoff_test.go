package mpi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vbuscluster/internal/cluster"
)

// grantAll is an unbounded Scheduler that counts its calls: every
// Ready is granted at once, so the counts show exactly which ranks an
// event woke.
type grantAll struct {
	parks, readies atomic.Int64
	mu             sync.Mutex
	woken          []int // nodes readied, in order
}

func (g *grantAll) Park(node int) { g.parks.Add(1) }

func (g *grantAll) Ready(node int, wake chan<- struct{}) {
	g.readies.Add(1)
	g.mu.Lock()
	g.woken = append(g.woken, node)
	g.mu.Unlock()
	wake <- struct{}{}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A Send readies its receiver only, and only when the receiver is
// parked in a receive: a message to a rank parked in a barrier wakes
// no one, and the barrier's last arrival wakes exactly its waiters.
func TestHandoffSendWakesOnlyReceiver(t *testing.T) {
	cl, err := cluster.New(4, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(cl)
	g := &grantAll{}
	w.SetScheduler(g)
	got := make([][]float64, 4)
	var wg sync.WaitGroup
	for r := 1; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := w.Rank(rank)
			p.Barrier()
			if rank == 1 || rank == 2 {
				got[rank] = p.Recv(0, 5)
			}
		}(r)
	}
	p := w.Rank(0)
	waitFor(t, "ranks 1-3 to park in the barrier", func() bool { return g.parks.Load() == 3 })
	p.Send(1, 5, []float64{1})
	if n := g.readies.Load(); n != 0 {
		t.Fatalf("a send to a rank parked in a barrier made %d Ready calls, want 0", n)
	}
	p.Barrier()
	if n := g.readies.Load(); n != 3 {
		t.Fatalf("the barrier's last arrival made %d Ready calls, want 3", n)
	}
	// Rank 1's message is already queued, so only rank 2 parks in its
	// receive; the send to it must ready rank 2 and nobody else.
	waitFor(t, "rank 2 to park in its receive", func() bool { return g.parks.Load() == 4 })
	p.Send(2, 5, []float64{2})
	wg.Wait()
	if n := g.readies.Load(); n != 4 {
		t.Fatalf("%d Ready calls in all, want 4 (one per park)", n)
	}
	if last := g.woken[len(g.woken)-1]; last != 2 {
		t.Fatalf("the second send readied node %d, want 2", last)
	}
	if got[1][0] != 1 || got[2][0] != 2 {
		t.Fatalf("payloads %v, %v; want [1], [2]", got[1], got[2])
	}
}
