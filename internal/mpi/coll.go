package mpi

import (
	"fmt"
	"math"
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Op is a reduction operator (the MPI_SUM/MPI_MAX/... constants).
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Max
	Min
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(o)))
	}
}

// collSlot is one collective's rendezvous: the count and latest clock
// of the ranks that have arrived (their contributions go to the
// world's reused collVals), then — once the last arrival has run
// finish — the shared result every rank returns.
type collSlot struct {
	arrived   int
	maxT      sim.Time
	done      bool
	result    []float64
	commCost  sim.Time
	transport interconnect.Transport
}

// collectiveE is the shared rendezvous: every rank contributes, the
// last arrival runs finish (which sees all contributions and the
// latest clock) to compute the released clock, the shared result, the
// per-rank comm cost to book, and the transport class the collective
// actually used (carried through the slot so every rank traces the
// same class — under fault injection a broadcast may degrade from the
// hardware bus to the software tree). All ranks return the shared
// result.
//
// Every earlier arrival parks (see park) and the last arrival readies
// exactly those ranks, each once: a waiter wakes already holding its
// worker slot, finds its slot done and returns.
//
// Under fault injection the rendezvous can fail instead of blocking
// forever: a crashed or departed rank fails every waiter with
// ErrPeerCrashed, and with a deadline set, a waiter stuck past the
// wall-clock watchdog fails with ErrTimeout. A failed collective
// poisons the world — the run is over, only error propagation remains.
func (w *World) collectiveE(rank int, op string, contrib []float64,
	finish func(maxT sim.Time, vals [][]float64) (release sim.Time, result []float64, commCost sim.Time, tr interconnect.Transport)) ([]float64, interconnect.Transport, *Error) {

	node := w.nodes[rank]
	if w.n == 1 {
		release, result, commCost, tr := finish(w.cl.Clock(node), [][]float64{contrib})
		w.cl.SetSome(w.nodes, release)
		w.cl.BookComm(node, commCost, 0)
		return result, tr, nil
	}
	deadline := w.inj.Deadline()
	var entry sim.Time
	var wallStart time.Time
	if deadline > 0 {
		entry = w.cl.Clock(node)
		wallStart = time.Now()
	}
	w.mu.Lock()
	if w.nDown > 0 {
		w.mu.Unlock()
		return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
	}
	slot := w.coll
	if slot == nil {
		slot = &collSlot{}
		w.coll = slot
	}
	w.collVals[rank] = contrib
	if t := w.cl.Clock(node); t > slot.maxT {
		slot.maxT = t
	}
	slot.arrived++
	if slot.arrived == w.n {
		release, result, commCost, tr := finish(slot.maxT, w.collVals)
		clear(w.collVals) // finish keeps no contribution; drop them
		slot.result = result
		slot.commCost = commCost
		slot.transport = tr
		slot.done = true
		w.cl.SetSome(w.nodes, release)
		w.coll = nil
		// Every other rank has arrived, so every rank parked on a
		// collective is parked on this one.
		for r, k := range w.waiting {
			if k == waitColl {
				w.ready(r)
			}
		}
	} else {
		for !slot.done {
			if w.revoked {
				slot.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrRevoked, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if w.cancelled.Load() {
				slot.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrCancelled, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if w.nDown > 0 {
				slot.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if deadline > 0 && time.Since(wallStart) > WatchdogWall {
				slot.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrTimeout, Rank: rank, Op: op, Peer: -1, Time: entry + deadline}
			}
			w.park(rank, waitColl)
		}
	}
	res := slot.result
	cost := slot.commCost
	tr := slot.transport
	w.mu.Unlock()
	w.cl.BookComm(node, cost, 0)
	return res, tr, nil
}

// Bcast broadcasts root's data to every rank (MPI_BCAST), using the
// V-Bus hardware broadcast facility of the card: one bus construction,
// one stream, every node listens — rather than a log2(P) software tree.
// Every rank receives its own copy; root's input is not aliased.
func (p *Proc) Bcast(root int, data []float64) []float64 {
	res, err := p.BcastE(root, data)
	if err != nil {
		panic(err)
	}
	return res
}

// BcastE is Bcast returning structured fault errors instead of
// panicking. A broadcast stalled by link outages past the injected
// per-operation deadline fails with ErrTimeout whose Time is the
// virtual time of detection — the instant the deadline expired, not
// the later clock at which the stalled operation would have finished.
func (p *Proc) BcastE(root int, data []float64) ([]float64, error) {
	w := p.w
	if root < 0 || root >= w.n {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range", root))
	}
	if err := p.enter(trace.OpBcast, root); err != nil {
		return nil, err
	}
	entry := p.entryClock()
	card := w.cl.Fabric()
	var contrib []float64
	if p.rank == root {
		contrib = data
	}
	rec, begin := p.traceBegin()
	res, tr, cerr := w.collectiveE(p.rank, trace.OpBcast, contrib,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			payload := vals[root]
			bcost, btr := w.broadcastCost(len(payload)*WordBytes, maxT+card.SendSetup())
			cost := card.SendSetup() + bcost
			return maxT + cost, append([]float64(nil), payload...), cost, btr
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpBcast, root, 0, int64(len(res)*WordBytes), tr)
	if d := w.inj.Deadline(); d > 0 && w.cl.Clock(p.node())-entry > d {
		return nil, &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpBcast, Peer: root, Time: entry + d}
	}
	return append([]float64(nil), res...), nil
}

// reduceCost models a binomial gather tree of vector messages.
func (w *World) reduceCost(elems int) sim.Time {
	card := w.cl.Fabric()
	stages := 0
	for p := 1; p < w.n; p *= 2 {
		stages++
	}
	return sim.Time(stages) * (card.SendSetup() + card.ContigTime(elems*WordBytes, 1))
}

// Reduce combines each rank's vector element-wise with op; the combined
// vector is returned on root, nil elsewhere (MPI_REDUCE). Under fault
// injection a failed rendezvous panics with the *Error; use ReduceE for
// error returns.
func (p *Proc) Reduce(op Op, root int, data []float64) []float64 {
	res, err := p.ReduceE(op, root, data)
	if err != nil {
		panic(err)
	}
	return res
}

// ReduceE is Reduce with structured error reporting under fault
// injection. Root-range and length-mismatch violations are programming
// errors and still panic.
func (p *Proc) ReduceE(op Op, root int, data []float64) ([]float64, error) {
	w := p.w
	if root < 0 || root >= w.n {
		panic(fmt.Sprintf("mpi: Reduce root %d out of range", root))
	}
	if err := p.enter(trace.OpReduce, root); err != nil {
		return nil, err
	}
	rec, begin := p.traceBegin()
	res, _, cerr := w.collectiveE(p.rank, trace.OpReduce, data,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			out := append([]float64(nil), vals[0]...)
			for r := 1; r < w.n; r++ {
				v := vals[r]
				if len(v) != len(out) {
					panic(fmt.Sprintf("mpi: Reduce length mismatch: rank 0 has %d, rank %d has %d", len(out), r, len(v)))
				}
				for i := range out {
					out[i] = op.apply(out[i], v[i])
				}
			}
			cost := w.reduceCost(len(out))
			return maxT + cost, out, cost, interconnect.TransportP2P
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpReduce, root, 0, int64(len(data)*WordBytes), interconnect.TransportP2P)
	if p.rank != root {
		return nil, nil
	}
	return append([]float64(nil), res...), nil
}

// Allreduce is Reduce followed by a V-Bus broadcast of the result;
// every rank receives the combined vector (MPI_ALLREDUCE). Under fault
// injection a failed rendezvous panics with the *Error; use AllreduceE
// for error returns.
func (p *Proc) Allreduce(op Op, data []float64) []float64 {
	res, err := p.AllreduceE(op, data)
	if err != nil {
		panic(err)
	}
	return res
}

// AllreduceE is Allreduce with structured error reporting under fault
// injection. Length-mismatch violations are programming errors and
// still panic.
func (p *Proc) AllreduceE(op Op, data []float64) ([]float64, error) {
	w := p.w
	if err := p.enter(trace.OpAllreduce, -1); err != nil {
		return nil, err
	}
	rec, begin := p.traceBegin()
	res, tr, cerr := w.collectiveE(p.rank, trace.OpAllreduce, data,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			out := append([]float64(nil), vals[0]...)
			for r := 1; r < w.n; r++ {
				v := vals[r]
				if len(v) != len(out) {
					panic(fmt.Sprintf("mpi: Allreduce length mismatch: rank 0 has %d, rank %d has %d", len(out), r, len(v)))
				}
				for i := range out {
					out[i] = op.apply(out[i], v[i])
				}
			}
			rcost := w.reduceCost(len(out))
			bcost, btr := w.broadcastCost(len(out)*WordBytes, maxT+rcost)
			cost := rcost + bcost
			return maxT + cost, out, cost, btr
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpAllreduce, -1, 0, int64(len(data)*WordBytes), tr)
	return append([]float64(nil), res...), nil
}
