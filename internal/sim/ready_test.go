package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestReadyQueueOrder(t *testing.T) {
	var q ReadyQueue[string]
	q.Push(30*Nanosecond, "c")
	q.Push(10*Nanosecond, "a")
	q.Push(20*Nanosecond, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		v, ok := q.Pop()
		if !ok || v != w {
			t.Fatalf("Pop = %v, %v; want %q", v, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestReadyQueueTiesPopInPushOrder(t *testing.T) {
	var q ReadyQueue[int]
	for i := 0; i < 5; i++ {
		q.Push(Microsecond, i)
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("tie %d popped as %v, %v", i, v, ok)
		}
	}
}

func TestReadyQueueLen(t *testing.T) {
	var q ReadyQueue[any]
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	q.Push(0, nil)
	q.Push(Second, nil)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("Len after Pop = %d, want 1", q.Len())
	}
}

// Interleaved pushes and pops over random keys with many ties must
// pop in exactly the (time, push order) order a stable sort gives.
func TestReadyQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q ReadyQueue[int]
	type rec struct {
		at  Time
		seq int
	}
	var pending []rec
	seq := 0
	for round := 0; round < 200; round++ {
		for k := rng.Intn(6); k > 0; k-- {
			at := Time(rng.Intn(8))
			q.Push(at, seq)
			pending = append(pending, rec{at, seq})
			seq++
		}
		sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
		for k := rng.Intn(5); k > 0 && len(pending) > 0; k-- {
			v, ok := q.Pop()
			if !ok || v != pending[0].seq {
				t.Fatalf("round %d: Pop = %d, %v; want %d", round, v, ok, pending[0].seq)
			}
			pending = pending[1:]
		}
	}
	if q.Len() != len(pending) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(pending))
	}
}

// A Push/Pop pair on a warmed queue allocates nothing: the heap is
// typed, so no item is boxed.
func TestReadyQueuePushPopAllocFree(t *testing.T) {
	var q ReadyQueue[chan<- struct{}]
	ch := make(chan struct{}, 1)
	for i := 0; i < 8; i++ {
		q.Push(Time(i), ch)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.Push(3, ch)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop allocates %v times per pair, want 0", allocs)
	}
}
