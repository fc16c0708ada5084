package mpi

import (
	"fmt"
	"sync"
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/trace"
)

// Win is an MPI-2 memory window (MPI_WIN): each rank exposes a region
// of its private memory that remote ranks may access with Put/Get
// without the owner's involvement. Windows are created collectively,
// identified by name (the compiler uses the array name).
type Win struct {
	world *World
	name  string

	mu   sync.Mutex // guards bufs wiring during creation
	bufs [][]float64

	applyMu []sync.Mutex // per-target apply serialization
	// lockCh holds the MPI_Win_lock exclusive locks as one-slot
	// channels: a send acquires, a receive releases. Channels (rather
	// than mutexes) let a deadline-carrying Lock time out in a select
	// instead of blocking forever on a dead lock holder.
	lockCh []chan struct{}
}

// WinCreate collectively creates (or attaches to) the window named
// name, exposing local as this rank's region (MPI_WIN_CREATE). Every
// rank must call it; it synchronizes like a barrier.
func (p *Proc) WinCreate(name string, local []float64) *Win {
	w := p.w
	w.mu.Lock()
	win, ok := w.wins[name]
	if !ok {
		win = &Win{
			world:   w,
			name:    name,
			bufs:    make([][]float64, w.n),
			applyMu: make([]sync.Mutex, w.n),
			lockCh:  make([]chan struct{}, w.n),
		}
		for i := range win.lockCh {
			win.lockCh[i] = make(chan struct{}, 1)
		}
		w.wins[name] = win
	}
	w.mu.Unlock()
	win.mu.Lock()
	win.bufs[p.rank] = local
	win.mu.Unlock()
	p.Barrier()
	return win
}

// WinFree collectively destroys the window (MPI_WIN_FREE).
func (p *Proc) WinFree(win *Win) {
	p.Barrier()
	if p.rank == 0 {
		w := p.w
		w.mu.Lock()
		delete(w.wins, win.name)
		w.mu.Unlock()
	}
	p.Barrier()
}

// Name reports the window's collective name.
func (win *Win) Name() string { return win.name }

// Local returns the calling rank's exposed region.
func (win *Win) Local(rank int) []float64 { return win.bufs[rank] }

func (win *Win) target(rank int) []float64 {
	if rank < 0 || rank >= len(win.bufs) {
		panic(fmt.Sprintf("mpi: window %q target rank %d out of range", win.name, rank))
	}
	b := win.bufs[rank]
	if b == nil {
		panic(fmt.Sprintf("mpi: window %q has no region on rank %d", win.name, rank))
	}
	return b
}

// Put transfers data into target's window region starting at
// targetOff, using the contiguous DMA path (contiguous MPI_PUT).
// Compatibility wrapper over the descriptor API: new code should
// prefer PutD with a ContigDesc. Under fault injection a failed
// transfer panics with the *Error; use PutE for error returns.
func (p *Proc) Put(win *Win, target, targetOff int, data []float64) {
	if err := p.PutE(win, target, targetOff, data); err != nil {
		panic(err)
	}
}

// PutE is Put with structured error reporting under fault injection.
// On error the target window is not modified.
func (p *Proc) PutE(win *Win, target, targetOff int, data []float64) error {
	return p.putDE("Put", win, target, ContigDesc(int64(targetOff), int64(len(data))), data)
}

// PutStrided transfers data into target's window with a constant
// element stride: data[i] lands at targetOff + i*stride (strided
// MPI_PUT, the programmed-I/O path). Compatibility wrapper over the
// descriptor API: new code should prefer PutD with a StridedDesc,
// which can also route large transfers over the coalesced pack path.
func (p *Proc) PutStrided(win *Win, target, targetOff, stride int, data []float64) {
	if err := p.PutStridedE(win, target, targetOff, stride, data); err != nil {
		panic(err)
	}
}

// PutStridedE is PutStrided with structured error reporting under
// fault injection. On error the target window is not modified.
func (p *Proc) PutStridedE(win *Win, target, targetOff, stride int, data []float64) error {
	if stride == 1 {
		return p.PutE(win, target, targetOff, data)
	}
	return p.putDE("PutStrided", win, target,
		StridedDesc(int64(targetOff), int64(len(data)), int64(stride)), data)
}

// Get reads elems words from target's window starting at targetOff
// into dst (contiguous MPI_GET). dst must have length >= elems.
// Compatibility wrapper over the descriptor API: new code should
// prefer GetD with a ContigDesc. Under fault injection a failed
// transfer panics with the *Error; use GetE for error returns.
func (p *Proc) Get(win *Win, target, targetOff int, dst []float64) {
	if err := p.GetE(win, target, targetOff, dst); err != nil {
		panic(err)
	}
}

// GetE is Get with structured error reporting under fault injection.
// On error dst is not modified.
func (p *Proc) GetE(win *Win, target, targetOff int, dst []float64) error {
	return p.getDE("Get", win, target, ContigDesc(int64(targetOff), int64(len(dst))), dst)
}

// GetStrided reads len(dst) words with a constant stride from target's
// window: dst[i] = window[targetOff + i*stride] (strided MPI_GET).
// Compatibility wrapper over the descriptor API: new code should
// prefer GetD with a StridedDesc.
func (p *Proc) GetStrided(win *Win, target, targetOff, stride int, dst []float64) {
	if err := p.GetStridedE(win, target, targetOff, stride, dst); err != nil {
		panic(err)
	}
}

// GetStridedE is GetStrided with structured error reporting under
// fault injection. On error dst is not modified.
func (p *Proc) GetStridedE(win *Win, target, targetOff, stride int, dst []float64) error {
	if stride == 1 {
		return p.GetE(win, target, targetOff, dst)
	}
	return p.getDE("GetStrided", win, target,
		StridedDesc(int64(targetOff), int64(len(dst)), int64(stride)), dst)
}

// Accumulate adds data element-wise into target's window starting at
// targetOff (MPI_ACCUMULATE with MPI_SUM). The per-target apply lock
// makes concurrent accumulations from different origins atomic. Under
// fault injection a failed transfer panics with the *Error; use
// AccumulateE for error returns.
func (p *Proc) Accumulate(win *Win, target, targetOff int, data []float64) {
	if err := p.AccumulateE(win, target, targetOff, data); err != nil {
		panic(err)
	}
}

// AccumulateE is Accumulate with structured error reporting under
// fault injection. On error the target window is not modified.
func (p *Proc) AccumulateE(win *Win, target, targetOff int, data []float64) error {
	d := ContigDesc(int64(targetOff), int64(len(data)))
	buf := p.validateAccess("Accumulate", win, target, d, len(data))
	if err := p.chargeAccessE(trace.OpAccumulate, target, d); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	for i, v := range data {
		buf[targetOff+i] += v
	}
	win.applyMu[target].Unlock()
	return nil
}

// Fence completes all outstanding one-sided operations on the window
// and synchronizes all ranks (MPI_WIN_FENCE). Because transfer time is
// charged to the origin, synchronizing every clock to the global
// maximum guarantees all PUTs issued before the fence have landed in
// virtual time as well as in memory.
func (p *Proc) Fence(win *Win) {
	p.barrier(trace.OpFence)
}

// FenceE is Fence with structured error reporting under fault
// injection (see BarrierE).
func (p *Proc) FenceE(win *Win) error {
	if err := p.barrierE(trace.OpFence); err != nil {
		return err
	}
	return nil
}

// Lock acquires an exclusive lock on target's region of the window
// (MPI_WIN_LOCK). Used for passive-target critical sections such as
// reductions into shared variables. Under fault injection a failed
// acquisition panics with the *Error; use LockE for error returns.
func (p *Proc) Lock(win *Win, target int) {
	if err := p.LockE(win, target); err != nil {
		panic(err)
	}
}

// LockE is Lock with structured error reporting under fault injection:
// a crashed caller fails with ErrCrashed, and with a deadline set, an
// acquisition stuck past the wall-clock watchdog (the holder crashed
// inside its critical section) fails with ErrTimeout.
func (p *Proc) LockE(win *Win, target int) error {
	if err := p.enter(trace.OpLock, target); err != nil {
		return err
	}
	entry := p.entryClock()
	rec, begin := p.traceBegin()
	d := p.w.inj.Deadline()
	if sched := p.w.sched; sched != nil {
		// Contended acquisitions release the worker slot while blocked
		// so the lock holder can run to its Unlock even when every slot
		// is busy (critical sections contain no blocking operations, so
		// a holder always progresses). The uncontended fast path keeps
		// the slot.
		select {
		case win.lockCh[target] <- struct{}{}:
		default:
			sched.Park(p.node())
			if d > 0 {
				select {
				case win.lockCh[target] <- struct{}{}:
				case <-p.w.cancelCh:
					p.resume()
					return p.cancelErr(trace.OpLock, target)
				case <-time.After(WatchdogWall):
					p.resume()
					return &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpLock, Peer: target, Time: entry + d}
				}
			} else {
				select {
				case win.lockCh[target] <- struct{}{}:
				case <-p.w.cancelCh:
					p.resume()
					return p.cancelErr(trace.OpLock, target)
				}
			}
			p.resume()
		}
	} else if d > 0 {
		select {
		case win.lockCh[target] <- struct{}{}:
		case <-p.w.cancelCh:
			return p.cancelErr(trace.OpLock, target)
		case <-time.After(WatchdogWall):
			return &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpLock, Peer: target, Time: entry + d}
		}
	} else {
		select {
		case win.lockCh[target] <- struct{}{}:
		case <-p.w.cancelCh:
			return p.cancelErr(trace.OpLock, target)
		}
	}
	card := p.w.cl.Fabric()
	p.w.cl.ChargeComm(p.node(), card.SendSetup()+card.ContigTime(WordBytes, p.hops(target)), 0)
	p.traceEnd(rec, begin, trace.OpLock, target, 0, 0, interconnect.TransportSync)
	return nil
}

// Unlock releases the exclusive lock (MPI_WIN_UNLOCK).
func (p *Proc) Unlock(win *Win, target int) {
	rec, begin := p.traceBegin()
	card := p.w.cl.Fabric()
	p.w.cl.ChargeComm(p.node(), card.SendSetup()+card.ContigTime(WordBytes, p.hops(target)), 0)
	<-win.lockCh[target]
	p.traceEnd(rec, begin, trace.OpUnlock, target, 0, 0, interconnect.TransportSync)
}

// ChargePutContig charges the cost of a contiguous PUT/GET of elems
// words to target without moving data. Compatibility wrapper over
// ChargePutD with a ContigDesc.
func (p *Proc) ChargePutContig(target, elems int) {
	p.ChargePutD(target, ContigDesc(0, int64(elems)))
}

// ChargePutStrided charges the cost of a strided PUT/GET of elems words
// to target without moving data. Compatibility wrapper over ChargePutD;
// the strided charge depends only on the element count, so the
// descriptor carries a placeholder stride. New code should pass the
// real descriptor, which also lets the coalescer's packed marking
// through.
func (p *Proc) ChargePutStrided(target, elems int) {
	p.ChargePutD(target, AccessDesc{Elems: int64(elems), Stride: 2})
}
