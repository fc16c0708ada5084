// Package cluster models the machine the paper evaluates on: a set of
// 300 MHz Pentium II PCs, each with 64 MB of memory, placed on a V-Bus
// mesh. It provides the per-process *virtual clocks* that the MPI
// runtime and the interpreter charge, and the CPU cost parameters used
// to convert abstract operation counts into virtual time.
//
// Virtual time replaces wall-clock measurement: every experiment in
// EXPERIMENTS.md compares virtual times, which makes results exactly
// reproducible and independent of the host machine.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"vbuscluster/internal/fault"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/mesh"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// geomString renders a geometry as "16x8x8".
func geomString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "x")
}

// CPUParams is the processor cost model. The defaults approximate a
// 300 MHz Pentium II running naive compiled Fortran loops: each
// floating-point operation in a loop body costs a couple of cycles once
// loads, stores and address arithmetic are folded in.
type CPUParams struct {
	// FlopTime is the charged time per floating-point operation
	// (including its share of loads/stores/address math).
	FlopTime sim.Time
	// IntOpTime is the charged time per integer/logical operation.
	IntOpTime sim.Time
	// LoopOverhead is the charged time per loop iteration for the
	// increment/test/branch.
	LoopOverhead sim.Time
	// MemCopyPerByte is the charged time per byte for local memory
	// copies (used for rank-local "communication").
	MemCopyPerByte sim.Time
	// CallOverhead is the charged time per subroutine call.
	CallOverhead sim.Time
	// SPMDIterOverhead is the extra per-iteration cost of a partitioned
	// (SPMD-ized) loop relative to the original sequential loop: the
	// generated code computes rank-dependent bounds and strides. It is
	// what makes the paper's 1-node "speedup" land below 1 (Table 1's
	// 0.96) independent of problem size.
	SPMDIterOverhead sim.Time
}

// DefaultCPUParams returns the Pentium II calibration.
func DefaultCPUParams() CPUParams {
	return CPUParams{
		FlopTime:         20 * sim.Nanosecond, // ~6 cycles @300MHz: mul/add + loads
		IntOpTime:        7 * sim.Nanosecond,
		LoopOverhead:     10 * sim.Nanosecond,
		MemCopyPerByte:   5 * sim.Nanosecond, // ~200 MB/s copy on 2001 SDRAM
		CallOverhead:     100 * sim.Nanosecond,
		SPMDIterOverhead: 6 * sim.Nanosecond,
	}
}

// Params bundles everything the runtime needs to cost operations.
type Params struct {
	CPU CPUParams
	// Fabric is the interconnect cost model shared by all nodes — the
	// pluggable machine-layer seam. Any registered backend (vbus,
	// ethernet, ideal, ...) slots in here; see ParamsForFabric.
	Fabric interconnect.Interconnect
	// MeshWidth/MeshHeight place the nodes. Nodes beyond the process
	// count stay idle. Ignored when MeshDims is set.
	MeshWidth, MeshHeight int
	// MeshDims generalizes the placement to an N-dimensional grid
	// (e.g. [16, 8, 8] for a 1024-node 3-D torus). Empty means
	// [MeshWidth, MeshHeight]. See Dims.
	MeshDims []int
	// Torus wraps the mesh in every dimension, shortening worst-case
	// hop distances (see mesh.Config.Torus for the flit-level model).
	Torus bool
	// Faults is the optional deterministic fault injector. Nil (the
	// default) models the paper's perfect network: no retries, no
	// outages, no slow or crashed nodes — and every charge is
	// bit-identical to a build without the fault layer.
	Faults *fault.Injector
}

// DefaultParams is the paper configuration: V-Bus cards on a 2x2 mesh
// (the experiment used a 4-node configuration).
func DefaultParams() Params {
	card, err := nic.NewVBus(nic.DefaultVBusConfig())
	if err != nil {
		panic("cluster: default vbus config invalid: " + err.Error())
	}
	return Params{
		CPU:        DefaultCPUParams(),
		Fabric:     card,
		MeshWidth:  2,
		MeshHeight: 2,
	}
}

// ParamsForFabric is DefaultParams with the interconnect swapped for
// the named registered backend ("vbus", "ethernet", "ideal", ...).
// The empty name means the default machine.
func ParamsForFabric(name string) (Params, error) {
	p := DefaultParams()
	if name == "" {
		return p, nil
	}
	ic, err := interconnect.New(name)
	if err != nil {
		return Params{}, fmt.Errorf("cluster: %w", err)
	}
	p.Fabric = ic
	return p, nil
}

// FabricCard implements nic.Machine: the machine's interconnect cost
// model.
func (p Params) FabricCard() interconnect.Interconnect { return p.Fabric }

// MemCopyCost implements nic.Machine: the CPU's per-byte memory-copy
// charge.
func (p Params) MemCopyCost() sim.Time { return p.CPU.MemCopyPerByte }

// Dims is the normalized mesh geometry: MeshDims when set, otherwise
// [MeshWidth, MeshHeight].
func (p Params) Dims() []int {
	if len(p.MeshDims) > 0 {
		return p.MeshDims
	}
	return []int{p.MeshWidth, p.MeshHeight}
}

// dimStrides returns the row-major coordinate strides of a geometry.
func dimStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i, d := range dims {
		strides[i] = s
		s *= d
	}
	return strides
}

// Hops reports the mesh hop distance between the nodes of two ranks
// placed row-major on the params' mesh (any number of dimensions). It
// is the single geometry helper shared by the runtime's charging and
// the compiler's static cost estimator, so the two cannot disagree.
//
// Hops runs on every charged transfer, so it allocates nothing: the
// 2-D geometry lives in a stack array and the row-major stride is a
// running product.
func (p Params) Hops(a, b int) int {
	dims := p.MeshDims
	if len(dims) == 0 {
		wh := [2]int{p.MeshWidth, p.MeshHeight}
		dims = wh[:]
	}
	total := 0
	stride := 1
	for i, size := range dims {
		ac, bc := a/stride, b/stride
		stride *= size
		if i < len(dims)-1 {
			ac, bc = ac%size, bc%size
		}
		d := ac - bc
		if d < 0 {
			d = -d
		}
		if p.Torus {
			if w := size - d; w < d {
				d = w
			}
		}
		total += d
	}
	return total
}

// Path lists the mesh nodes a message from rank a's node to rank b's
// node visits in order (endpoints included), following the same
// dimension-ordered routing as the flit-level simulator: dimension 0
// is corrected first, then 1, and so on, taking the shorter wrap
// direction on a torus (ties go to the positive direction). The fault
// injector's link outages are resolved against this path.
func (p Params) Path(a, b int) []int {
	dims := p.Dims()
	strides := dimStrides(dims)
	cur := make([]int, len(dims))
	dst := make([]int, len(dims))
	for i, size := range dims {
		cur[i] = (a / strides[i]) % size
		dst[i] = (b / strides[i]) % size
	}
	node := func() int {
		n := 0
		for i := range dims {
			n += cur[i] * strides[i]
		}
		return n
	}
	path := []int{a}
	// dir picks +1 or -1 along one axis: toward the destination on a
	// plain mesh, the shorter wrap on a torus (ties go positive). The
	// step counts match Params.Hops by construction.
	dir := func(curv, dstv, size int) int {
		fwd := dstv - curv
		if fwd < 0 {
			fwd += size
		}
		bwd := size - fwd
		if !p.Torus {
			if dstv > curv {
				return 1
			}
			return -1
		}
		if fwd <= bwd {
			return 1
		}
		return -1
	}
	for i, size := range dims {
		for cur[i] != dst[i] {
			cur[i] = (cur[i] + dir(cur[i], dst[i], size) + size) % size
			path = append(path, node())
		}
	}
	return path
}

// Cluster is a set of processes with virtual clocks placed on a mesh.
// All methods are safe for concurrent use by the per-rank goroutines.
type Cluster struct {
	params Params
	n      int

	// rec is the optional event recorder. It is attached once, before
	// the per-rank goroutines start, and read (nil-checked) on every
	// operation, so tracing costs one pointer load when off.
	rec *trace.Recorder

	mu        sync.Mutex
	clocks    []sim.Time
	commTime  []sim.Time // communication time charged per rank
	xferTime  []sim.Time // data-transfer subset of commTime (no sync)
	compTime  []sim.Time // computation time charged per rank
	commBytes []int64
	commOps   []int64
	// opsSeen counts MPI operations issued per rank. It feeds the
	// crashafter fault and is only bumped when such a fault is
	// scheduled, so the zero-fault hot path never touches it.
	opsSeen []int64

	// regCaches holds one memory-registration cache per physical node
	// when the fabric prices an eager/rendezvous protocol choice
	// (interconnect.ProtocolModel), nil otherwise. Like opsSeen, the
	// caches are per-node sender-side state that survives communicator
	// rebuilds and is cleared by Reset. They live here rather than in
	// the card because core.Compiled shares one card instance across
	// concurrent runs (the vbserve plan cache) — mutable per-run state
	// in the card would race.
	regCaches []*interconnect.RegCache
}

// New builds a cluster of n processes. Ranks are placed row-major on
// the mesh; n may not exceed the mesh capacity. Geometry rejections
// carry the mesh package's named errors (mesh.ErrBadGeometry,
// mesh.ErrGeometryMismatch) so callers can classify them.
func New(n int, params Params) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one process, got %d", n)
	}
	dims := params.Dims()
	capacity := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("cluster: invalid mesh %s: %w", geomString(dims), mesh.ErrBadGeometry)
		}
		capacity *= d
	}
	if n > capacity {
		return nil, fmt.Errorf("cluster: %d processes exceed %d mesh nodes (%s): %w",
			n, capacity, geomString(dims), mesh.ErrGeometryMismatch)
	}
	if params.Fabric == nil {
		return nil, fmt.Errorf("cluster: nil interconnect backend")
	}
	c := &Cluster{
		params:    params,
		n:         n,
		clocks:    make([]sim.Time, n),
		commTime:  make([]sim.Time, n),
		xferTime:  make([]sim.Time, n),
		compTime:  make([]sim.Time, n),
		commBytes: make([]int64, n),
		commOps:   make([]int64, n),
		opsSeen:   make([]int64, n),
	}
	if pm, ok := params.Fabric.(interconnect.ProtocolModel); ok {
		c.regCaches = make([]*interconnect.RegCache, n)
		for i := range c.regCaches {
			c.regCaches[i] = interconnect.NewRegCache(pm.RegCacheCapacity())
		}
	}
	return c, nil
}

// N reports the process count.
func (c *Cluster) N() int { return c.n }

// Params returns the cost parameters.
func (c *Cluster) Params() Params { return c.params }

// Fabric returns the interconnect cost model.
func (c *Cluster) Fabric() interconnect.Interconnect { return c.params.Fabric }

// SetRecorder attaches an event recorder (nil detaches). It must be
// called before the run's goroutines start issuing operations.
func (c *Cluster) SetRecorder(r *trace.Recorder) { c.rec = r }

// Recorder returns the attached event recorder, nil when tracing is
// off.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// Hops reports the mesh hop distance between two ranks' nodes.
func (c *Cluster) Hops(a, b int) int { return c.params.Hops(a, b) }

// RegCache returns node's memory-registration cache, or nil when the
// fabric has no eager/rendezvous protocol model.
func (c *Cluster) RegCache(node int) *interconnect.RegCache {
	if c.regCaches == nil {
		return nil
	}
	c.check(node)
	return c.regCaches[node]
}

func (c *Cluster) check(rank int) {
	if rank < 0 || rank >= c.n {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, c.n))
	}
}

// Clock reports rank's current virtual time.
func (c *Cluster) Clock(rank int) sim.Time {
	c.check(rank)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clocks[rank]
}

// ChargeCompute advances rank's clock by d and books it as computation.
// A slow-node fault scales the charge: the injected factor models a
// thermally throttled or overloaded node that still makes progress.
func (c *Cluster) ChargeCompute(rank int, d sim.Time) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative compute charge")
	}
	if f := c.params.Faults.SlowFactor(rank); f > 1 {
		d = sim.Time(float64(d)*f + 0.5)
	}
	c.mu.Lock()
	c.clocks[rank] += d
	c.compTime[rank] += d
	c.mu.Unlock()
}

// Faults returns the cluster's fault injector (nil when fault injection
// is off — the nil injector is inert, so callers may use it directly).
func (c *Cluster) Faults() *fault.Injector { return c.params.Faults }

// ChargeComm advances rank's clock by d and books it as communication,
// with bytes moved for throughput accounting.
func (c *Cluster) ChargeComm(rank int, d sim.Time, bytes int) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative comm charge")
	}
	c.mu.Lock()
	c.clocks[rank] += d
	c.commTime[rank] += d
	c.xferTime[rank] += d
	c.commBytes[rank] += int64(bytes)
	c.commOps[rank]++
	c.mu.Unlock()
}

// BookComm records d of communication time (and bytes) on rank's
// accounting without advancing its clock. Synchronizing operations use
// it: the clock movement happens collectively via SetAll, but the comm
// cost must still show up in the rank's communication-time report.
func (c *Cluster) BookComm(rank int, d sim.Time, bytes int) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative comm booking")
	}
	c.mu.Lock()
	c.commTime[rank] += d
	c.commBytes[rank] += int64(bytes)
	c.commOps[rank]++
	c.mu.Unlock()
}

// AdvanceTo lifts rank's clock to at least t (used when a receive
// blocks until a matching send: waiting is neither compute nor comm
// work, but time still passes).
func (c *Cluster) AdvanceTo(rank int, t sim.Time) {
	c.check(rank)
	c.mu.Lock()
	if c.clocks[rank] < t {
		c.clocks[rank] += t - c.clocks[rank]
	}
	c.mu.Unlock()
}

// SetAll sets every clock to t (used by barrier-style collectives).
func (c *Cluster) SetAll(t sim.Time) {
	c.mu.Lock()
	for i := range c.clocks {
		if c.clocks[i] < t {
			c.clocks[i] = t
		}
	}
	c.mu.Unlock()
}

// SetSome lifts the clocks of the listed ranks to t, leaving all
// others untouched. Collectives on a shrunken communicator use it:
// after a crash, dead and excluded ranks must keep their last clock
// reading rather than be dragged along by the survivors' barriers.
func (c *Cluster) SetSome(ranks []int, t sim.Time) {
	c.mu.Lock()
	for _, r := range ranks {
		if r >= 0 && r < c.n && c.clocks[r] < t {
			c.clocks[r] = t
		}
	}
	c.mu.Unlock()
}

// BumpOps increments rank's MPI-operation counter and returns the new
// count. The counter persists across communicator rebuilds so a
// crashafter fault keyed on the physical node fires exactly once.
func (c *Cluster) BumpOps(rank int) int64 {
	c.check(rank)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opsSeen[rank]++
	return c.opsSeen[rank]
}

// MaxClock reports the furthest-ahead clock.
func (c *Cluster) MaxClock() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max sim.Time
	for _, t := range c.clocks {
		if t > max {
			max = t
		}
	}
	return max
}

// Report is a per-run accounting snapshot.
type Report struct {
	Clocks []sim.Time
	// CommTime is all communication time per rank, synchronization
	// (barriers, fences, collective waits) included.
	CommTime []sim.Time
	// XferTime is the data-transfer subset of CommTime: the cost of the
	// PUT/GET/send payload movement that the compiler's communication
	// granularity controls.
	XferTime  []sim.Time
	CompTime  []sim.Time
	CommBytes []int64
	CommOps   []int64
}

// TotalXferTime sums the data-transfer time over all ranks — the
// granularity-sensitive "communication time" that Table 2 compares.
func (r Report) TotalXferTime() sim.Time {
	var s sim.Time
	for _, t := range r.XferTime {
		s += t
	}
	return s
}

// TotalCommTime sums all communication time (including
// synchronization) over all ranks.
func (r Report) TotalCommTime() sim.Time {
	var s sim.Time
	for _, t := range r.CommTime {
		s += t
	}
	return s
}

// ElapsedVirtual is the makespan: the furthest-ahead clock.
func (r Report) ElapsedVirtual() sim.Time {
	var max sim.Time
	for _, t := range r.Clocks {
		if t > max {
			max = t
		}
	}
	return max
}

// MaxCommTime is the largest per-rank communication time — the paper's
// "total communication time" metric (the comm time on the critical
// path).
func (r Report) MaxCommTime() sim.Time {
	var max sim.Time
	for _, t := range r.CommTime {
		if t > max {
			max = t
		}
	}
	return max
}

// TotalCommBytes sums bytes moved by every rank.
func (r Report) TotalCommBytes() int64 {
	var s int64
	for _, b := range r.CommBytes {
		s += b
	}
	return s
}

// TotalCommOps sums communication operations issued by every rank.
func (r Report) TotalCommOps() int64 {
	var s int64
	for _, b := range r.CommOps {
		s += b
	}
	return s
}

// Snapshot copies the current accounting state.
func (c *Cluster) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Clocks:    append([]sim.Time(nil), c.clocks...),
		CommTime:  append([]sim.Time(nil), c.commTime...),
		XferTime:  append([]sim.Time(nil), c.xferTime...),
		CompTime:  append([]sim.Time(nil), c.compTime...),
		CommBytes: append([]int64(nil), c.commBytes...),
		CommOps:   append([]int64(nil), c.commOps...),
	}
	return r
}

// Reset zeroes all clocks and accounting, and empties the
// registration caches (a fresh run starts with nothing pinned).
func (c *Cluster) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.clocks {
		c.clocks[i] = 0
		c.commTime[i] = 0
		c.xferTime[i] = 0
		c.compTime[i] = 0
		c.commBytes[i] = 0
		c.commOps[i] = 0
		c.opsSeen[i] = 0
	}
	for _, rc := range c.regCaches {
		rc.Reset()
	}
}
