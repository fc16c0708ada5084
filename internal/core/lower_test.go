package core_test

import (
	"fmt"
	"sync"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/sim"
)

// loweredCase is one edge case of the lowered interpreter, with the
// output and makespans the tree-walking interpreter it replaced
// produced (sequential and 4-rank, Full and Timing). Virtual time must
// not move by a picosecond.
type loweredCase struct {
	name string
	src  string
	out  string // Full-mode output, sequential and parallel alike
	// parRegions is the number of partitioned regions the 4-rank
	// translation must contain for the case to exercise the SPMD path.
	parRegions int
	seqFull    sim.Time
	seqTiming  sim.Time
	parFull    sim.Time
	parTiming  sim.Time
}

var loweredCases = []loweredCase{
	{
		// A CALL with an array-element actual (sequence association)
		// inside an inner loop of a FUNCTION, itself passed a column.
		name: "sequence-association",
		src: `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N,4), S
      INTEGER I, J
      DO J = 1, 4
        DO I = 1, N
          A(I,J) = REAL(I + 10*J)
        ENDDO
      ENDDO
      S = 0.0
      DO J = 1, 4
        S = S + COLSUM(A(1,J), 8)
      ENDDO
      PRINT *, S, A(3,2)
      END

      REAL FUNCTION COLSUM(V, M)
      INTEGER M, K
      REAL V(M)
      COLSUM = 0.0
      DO K = 1, M
        CALL BUMP(V(K), COLSUM)
      ENDDO
      END

      SUBROUTINE BUMP(X, ACC)
      REAL X, ACC
      X = X + 1.0
      ACC = ACC + X
      END
`,
		out: "976 24\n", parRegions: 1,
		seqFull: 8745000, seqTiming: 8745000, parFull: 337822732, parTiming: 337822732,
	},
	{
		// A FUNCTION reading and writing COMMON inside a loop. (The
		// tree-walker printed CNT as 0: constant propagation did not
		// see the call write the COMMON counter. The clocks are its.)
		name: "function-common",
		src: `
      PROGRAM P
      INTEGER CNT, I
      REAL T
      COMMON /CTR/ CNT, T
      REAL A(16)
      CNT = 0
      T = 0.5
      DO I = 1, 16
        A(I) = TICK(REAL(I))
      ENDDO
      PRINT *, CNT, T, A(16)
      END

      REAL FUNCTION TICK(X)
      REAL X
      INTEGER CNT
      REAL T
      COMMON /CTR/ CNT, T
      CNT = CNT + 1
      T = T + X
      TICK = T * REAL(CNT)
      END
`,
		out:     "16 136.5 2184\n",
		seqFull: 5447000, seqTiming: 5447000, parFull: 65433012, parTiming: 65433012,
	},
	{
		// A GOTO out of a DO body. Control flow depends on data, so
		// Timing mode (which never fills A) runs the loop to the end.
		name: "goto-out-of-loop",
		src: `
      PROGRAM P
      INTEGER I
      REAL A(20), S
      DO I = 1, 20
        A(I) = REAL(I*I)
      ENDDO
      S = 0.0
      DO I = 1, 20
        IF (A(I) .GT. 50.0) GOTO 30
        S = S + A(I)
      ENDDO
30    CONTINUE
      PRINT *, I, S
      END
`,
		out:     "8 140\n",
		seqFull: 1711000, seqTiming: 2609000, parFull: 61697012, parTiming: 62595012,
	},
	{
		// Inlining binds a 1-D dummy to a 2-D actual, leaving A(K)
		// references with fewer subscripts than dimensions: they
		// address A linearly from its leading dimension.
		name: "inlined-reshape",
		src: `
      PROGRAM P
      REAL A(4,3)
      INTEGER I, J
      DO J = 1, 3
        DO I = 1, 4
          A(I,J) = REAL(I + 10*J)
        ENDDO
      ENDDO
      CALL SCALE(A, 12)
      PRINT *, A(1,1), A(4,3)
      END

      SUBROUTINE SCALE(V, N)
      INTEGER N, K
      REAL V(N)
      DO K = 1, N
        V(K) = V(K) * 2.0
      ENDDO
      END
`,
		out: "22 68\n", parRegions: 2,
		seqFull: 1718000, seqTiming: 1718000, parFull: 689980132, parTiming: 689980132,
	},
	{
		name: "logical-assignment",
		src: `
      PROGRAM P
      LOGICAL F, G
      INTEGER I, N
      REAL A(10)
      N = 0
      DO I = 1, 10
        A(I) = REAL(I) - 4.5
      ENDDO
      F = .FALSE.
      DO I = 1, 10
        G = A(I) .GT. 0.0 .AND. .NOT. F
        IF (G) N = N + 1
        F = A(I) .GT. 3.0
      ENDDO
      PRINT *, N
      END
`,
		out: "4\n", parRegions: 1,
		seqFull: 1652000, seqTiming: 1596000, parFull: 391164744, parTiming: 391108744,
	},
	{
		name: "adjustable-dummy",
		src: `
      PROGRAM P
      REAL A(6,5), S
      INTEGER I, J
      DO J = 1, 5
        DO I = 1, 6
          A(I,J) = REAL(I - J)
        ENDDO
      ENDDO
      S = TRACE(A, 6, 5)
      PRINT *, S
      END

      REAL FUNCTION TRACE(B, M, N)
      INTEGER M, N, K
      REAL B(M, N)
      TRACE = 0.0
      DO K = 1, MIN(M, N)
        TRACE = TRACE + B(K, K) * REAL(K) + B(M, K)
      ENDDO
      END
`,
		out: "15\n", parRegions: 1,
		seqFull: 2946000, seqTiming: 2946000, parFull: 362740404, parTiming: 362740404,
	},
	{
		// The second loop's IF keeps it from being bulk-charged, so in
		// Timing mode every slave executes it and touches A and B,
		// which it deferred: they allocate on first touch.
		name: "timing-slave-lazy-array",
		src: `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 64)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I) - 20.0
      ENDDO
      DO I = 1, N
        IF (B(I) .GT. 0.0) THEN
          A(I) = B(I) * 2.0
        ELSE
          A(I) = -B(I)
        ENDIF
      ENDDO
      PRINT *, A(1), A(N)
      END
`,
		out: "19 88\n", parRegions: 2,
		seqFull: 9294000, seqTiming: 9294000, parFull: 701156132, parTiming: 701156132,
	},
}

// TestLoweredEdgeCases runs each edge case sequentially and on 4
// ranks, in Full and Timing mode, against the pinned output and clocks.
func TestLoweredEdgeCases(t *testing.T) {
	for _, tc := range loweredCases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.src, core.Options{NumProcs: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				label string
				mode  core.Mode
				par   bool
				want  sim.Time
			}{
				{"seq/full", core.Full, false, tc.seqFull},
				{"seq/timing", core.Timing, false, tc.seqTiming},
				{"par/full", core.Full, true, tc.parFull},
				{"par/timing", core.Timing, true, tc.parTiming},
			} {
				exec := c.RunSequential
				if run.par {
					exec = c.RunParallel
				}
				res, err := exec(run.mode)
				if err != nil {
					t.Fatalf("%s: %v", run.label, err)
				}
				if res.Elapsed != run.want {
					t.Errorf("%s: makespan %d ps, want %d ps", run.label, int64(res.Elapsed), int64(run.want))
				}
				wantOut := tc.out
				if run.mode == core.Timing {
					wantOut = ""
				}
				if res.Output != wantOut {
					t.Errorf("%s: output %q, want %q", run.label, res.Output, wantOut)
				}
				if run.par {
					n := 0
					for _, r := range res.Regions {
						if r.Parallel {
							n++
						}
					}
					if n != tc.parRegions {
						t.Errorf("%s: %d partitioned regions, want %d", run.label, n, tc.parRegions)
					}
				}
			}
		})
	}
}

// TestSharedPlanConcurrentRuns starts sequential and parallel runs of
// one fresh Compiled at once, so the first runs race to build the
// lowered plan and all of them then execute it together. Under -race
// this fails on any write into the shared plan; without it, every run
// must still match a run of a separately compiled copy.
func TestSharedPlanConcurrentRuns(t *testing.T) {
	src := bench.MMSource(16)
	opts := core.Options{NumProcs: 4}
	ref, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, mode := range []core.Mode{core.Full, core.Timing} {
		seq, err := ref.RunSequential(mode)
		if err != nil {
			t.Fatal(err)
		}
		par, err := ref.RunParallel(mode)
		if err != nil {
			t.Fatal(err)
		}
		want["seq/"+mode.String()] = fmt.Sprintf("%q %d", seq.Output, seq.Elapsed)
		want["par/"+mode.String()] = fmt.Sprintf("%q %d", par.Output, par.Elapsed)
	}

	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	got := make([]string, runs)
	keys := make([]string, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		mode := core.Full
		if i%2 == 1 {
			mode = core.Timing
		}
		kind := "par"
		if i%4 >= 2 {
			kind = "seq"
		}
		keys[i] = kind + "/" + mode.String()
		wg.Add(1)
		go func(i int, kind string, mode core.Mode) {
			defer wg.Done()
			var res *interp.Result
			if kind == "seq" {
				res, errs[i] = c.RunSequential(mode)
			} else {
				res, errs[i] = c.RunParallelWith(mode, core.RunParams{})
			}
			if errs[i] == nil {
				got[i] = fmt.Sprintf("%q %d", res.Output, res.Elapsed)
			}
		}(i, kind, mode)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("run %d (%s): %v", i, keys[i], errs[i])
		}
		if got[i] != want[keys[i]] {
			t.Errorf("run %d (%s): %s, want %s", i, keys[i], got[i], want[keys[i]])
		}
	}
}
