package core

import (
	"math"
	"strings"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/postpass"
)

const testSrc = `
      PROGRAM T
      INTEGER N
      PARAMETER (N = 48)
      REAL A(N), B(N), S
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(I) = B(I) * 2.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
`

func TestCompileDefaults(t *testing.T) {
	c, err := Compile(testSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.SPMD.Opts.NumProcs != 4 {
		t.Fatalf("default procs = %d", c.SPMD.Opts.NumProcs)
	}
	if !c.SPMD.Opts.LiveOutAll {
		t.Fatal("LiveOutAll should default on")
	}
}

func TestEndToEndSpeedup(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup = %v", s)
	}
}

func TestFullModeResultsAgree(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 3, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(Full)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 48.0 * 49.0 / 2.0
	for _, res := range []string{seq.Output, par.Output} {
		if !strings.Contains(res, "2352") {
			t.Fatalf("checksum missing (want %v): %q", want, res)
		}
	}
	for i := range seq.Mem["A"] {
		if math.Abs(seq.Mem["A"][i]-par.Mem["A"][i]) > 0 {
			t.Fatalf("A[%d] differs", i)
		}
	}
}

func TestMeshFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 3, 2}, {7, 3, 3},
		{9, 3, 3}, {16, 4, 4}, {17, 5, 4},
	}
	for _, c := range cases {
		w, h := MeshFor(c.n)
		if w*h < c.n {
			t.Fatalf("MeshFor(%d) = %dx%d does not fit", c.n, w, h)
		}
		if w != c.w || h != c.h {
			t.Fatalf("MeshFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		// Near-square: sides differ by at most one, and no row is wasted.
		if w-h < 0 || w-h > 1 {
			t.Fatalf("MeshFor(%d) = %dx%d not near-square", c.n, w, h)
		}
		if w*(h-1) >= c.n {
			t.Fatalf("MeshFor(%d) = %dx%d has an empty row", c.n, w, h)
		}
	}
}

func TestCustomParams(t *testing.T) {
	card, err := nic.NewEthernet(nic.DefaultEthernetConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := cluster.DefaultParams()
	params.Fabric = card
	cEth, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	resEth, err := cEth.RunParallel(Timing)
	if err != nil {
		t.Fatal(err)
	}
	cVB, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	resVB, err := cVB.RunParallel(Timing)
	if err != nil {
		t.Fatal(err)
	}
	if resEth.Report.TotalXferTime() <= resVB.Report.TotalXferTime() {
		t.Fatalf("ethernet comm (%v) should exceed vbus comm (%v)",
			resEth.Report.TotalXferTime(), resVB.Report.TotalXferTime())
	}
}

func TestLargeProcCountGetsWiderMesh(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 9, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(Timing); err != nil {
		t.Fatalf("9-proc run failed: %v", err)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("garbage", Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Compile(`
      PROGRAM P
      CALL MISSING(1)
      END
`, Options{}); err == nil {
		t.Fatal("unknown subroutine accepted")
	}
}

func TestReportRenders(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 2, Grain: lmad.Middle})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !strings.Contains(rep, "grain=middle") || !strings.Contains(rep, "parallel DO I") {
		t.Fatalf("report:\n%s", rep)
	}
}

// The static communication estimate must equal the measured transfer
// time exactly — the advisor is only trustworthy if it prices the same
// plan the runtime executes.
func TestEstimateMatchesMeasured(t *testing.T) {
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: grain})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(Timing)
		if err != nil {
			t.Fatal(err)
		}
		params := cluster.DefaultParams()
		est := postpass.EstimateCommCost(c.SPMD, params)
		if est != res.Report.TotalXferTime() {
			t.Fatalf("grain %v: estimate %v != measured %v", grain, est, res.Report.TotalXferTime())
		}
	}
}

// The estimator must stay exact on the protocol-switched rdma fabric
// too: its simulated registration caches have to replay the runtime's
// eager/rendezvous decisions — including the coalesce stage's
// rendezvous stamps — transfer for transfer.
func TestEstimateMatchesMeasuredRdma(t *testing.T) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		t.Fatal(err)
	}
	for _, coalesce := range []bool{false, true} {
		for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
			c, err := Compile(testSrc, Options{NumProcs: 4, Grain: grain, Fabric: "rdma", Coalesce: coalesce})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunParallel(Timing)
			if err != nil {
				t.Fatal(err)
			}
			est := postpass.EstimateCommCost(c.SPMD, params)
			if est != res.Report.TotalXferTime() {
				t.Fatalf("grain %v coalesce %v: estimate %v != measured %v",
					grain, coalesce, est, res.Report.TotalXferTime())
			}
		}
	}
}

func TestAutoGrainPicksCheapest(t *testing.T) {
	params := cluster.DefaultParams()
	var costs []struct {
		g lmad.Grain
		t float64
	}
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: grain})
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, struct {
			g lmad.Grain
			t float64
		}{grain, postpass.EstimateCommCost(c.SPMD, params).Seconds()})
	}
	best := costs[0]
	for _, c := range costs[1:] {
		if c.t < best.t {
			best = c
		}
	}
	auto, err := Compile(testSrc, Options{NumProcs: 4, AutoGrain: true})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Grain() != best.g {
		t.Fatalf("AutoGrain chose %v, cheapest is %v (%v)", auto.Grain(), best.g, costs)
	}
}

// Virtual-time determinism: identical compilations and runs must yield
// bit-identical clocks and accounting regardless of goroutine
// scheduling — the property that makes EXPERIMENTS.md reproducible.
func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() (e, x int64) {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(Timing)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed), int64(res.Report.TotalXferTime())
	}
	e0, x0 := run()
	for i := 0; i < 10; i++ {
		e, x := run()
		if e != e0 || x != x0 {
			t.Fatalf("run %d diverged: elapsed %d vs %d, xfer %d vs %d", i, e, e0, x, x0)
		}
	}
}

// TestFunctionCallEffectsEndToEnd: a FUNCTION that writes its actual
// and a COMMON counter must be seen by later statements — the
// sequential baseline and the 4-rank SPMD run print the same values,
// including in the partitioned loop that reads the written variable.
func TestFunctionCallEffectsEndToEnd(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER I, J, K, L, CNT
      REAL A(16)
      COMMON /C/ CNT
      I = 2
      L = 4
      CNT = 0
      J = NXT(I)
      IF (NXT(L) .GT. 0) J = J + 1
      DO K = 1, 16
        A(K) = REAL(K + I)
      ENDDO
      PRINT *, I, L, CNT, J, A(16)
      END

      INTEGER FUNCTION NXT(M)
      INTEGER M, CNT
      COMMON /C/ CNT
      M = M + 5
      CNT = CNT + 1
      NXT = M
      END
`
	c, err := Compile(src, Options{NumProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(Full)
	if err != nil {
		t.Fatal(err)
	}
	const want = "7 9 2 8 23\n"
	if seq.Output != want || par.Output != want {
		t.Fatalf("sequential printed %q, parallel %q; want %q", seq.Output, par.Output, want)
	}
}

// seqParOutput compiles src for procs ranks and returns what the
// sequential and the parallel Full-mode runs print.
func seqParOutput(t *testing.T, src string, procs int) (seq, par string) {
	t.Helper()
	c, err := Compile(src, Options{NumProcs: procs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.RunSequential(Full)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	p, err := c.RunParallel(Full)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	return s.Output, p.Output
}

// A counter bumped once per trip of a loop that a GOTO leaves early is
// not an induction variable: substituting its closed form would assign
// the full-trip final value after the loop, which the GOTO skips.
func TestInductionGotoExitEndToEnd(t *testing.T) {
	src := `
      PROGRAM GX
      INTEGER HIT, I
      HIT = 0
      DO I = 1, 10
        HIT = HIT + 1
        IF (I .EQ. 4) GOTO 30
      ENDDO
   30 PRINT *, HIT
      END
`
	seq, par := seqParOutput(t, src, 4)
	if seq != "4\n" || par != "4\n" {
		t.Fatalf("sequential printed %q, parallel %q; want %q", seq, par, "4\n")
	}
}

// A named PARAMETER has no storage to alias, so as a FUNCTION or CALL
// actual it binds through a temporary, exactly like an expression.
func TestParameterActualEndToEnd(t *testing.T) {
	src := `
      PROGRAM PX
      INTEGER N
      PARAMETER (N = 5)
      REAL X, Y, F
      X = F(N)
      CALL TWICE(N, Y)
      PRINT *, X, Y
      END

      REAL FUNCTION F(K)
      INTEGER K
      F = K * 2.0
      END

      SUBROUTINE TWICE(K, R)
      INTEGER K
      REAL R
      R = K * 2.0
      END
`
	seq, par := seqParOutput(t, src, 4)
	const want = "10 10\n"
	if seq != want || par != want {
		t.Fatalf("sequential printed %q, parallel %q; want %q", seq, par, want)
	}
}
