package interp

import (
	"reflect"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/trace"
)

// reductionSrc exercises the lock path under LockReductions: a
// parallel reduction whose combining runs inside MPI_WIN_LOCK critical
// sections on the master.
const reductionSrc = `
      PROGRAM RED
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)*A(I)
      ENDDO
      PRINT *, S
      END
`

// runPooled executes src on 4 ranks of the named fabric with the given
// worker-pool size, returning the result and the recorded timeline.
func runPooled(t *testing.T, src, fabric string, lockRed bool, workers int) (*Result, []trace.Event) {
	t.Helper()
	prog := compile(t, src)
	pp, err := postpass.Translate(prog, postpass.Options{
		NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true, LockReductions: lockRed,
	})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatalf("fabric %q: %v", fabric, err)
	}
	cl, err := cluster.New(4, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cl.SetRecorder(rec)
	res, err := RunParallelConfig(LowerSPMD(pp), cl, Full, RunConfig{Workers: workers})
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return res, rec.Events()
}

// The pooled scheduler must be invisible in every observable output:
// for any worker count, payloads, final clocks and the full trace
// timeline match the legacy unpooled launcher (Workers < 0)
// byte-for-byte, on every fabric.
func TestPooledSchedulerEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		lockRed bool
	}{
		{"mm", mmSrc, false},
		{"reduction-locked", reductionSrc, true},
	}
	for _, cse := range cases {
		for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
			refRes, refEvs := runPooled(t, cse.src, fabric, cse.lockRed, -1)
			for _, workers := range []int{1, 2, 3, 8, 0} {
				res, evs := runPooled(t, cse.src, fabric, cse.lockRed, workers)
				tag := cse.name + "/" + fabric
				if res.Output != refRes.Output {
					t.Errorf("%s workers=%d: output %q != unpooled %q", tag, workers, res.Output, refRes.Output)
				}
				if res.Elapsed != refRes.Elapsed {
					t.Errorf("%s workers=%d: elapsed %v != unpooled %v", tag, workers, res.Elapsed, refRes.Elapsed)
				}
				if !reflect.DeepEqual(res.Report.Clocks, refRes.Report.Clocks) {
					t.Errorf("%s workers=%d: clocks %v != unpooled %v", tag, workers, res.Report.Clocks, refRes.Report.Clocks)
				}
				if !reflect.DeepEqual(res.Mem, refRes.Mem) {
					t.Errorf("%s workers=%d: master memory differs from unpooled", tag, workers)
				}
				if !reflect.DeepEqual(evs, refEvs) {
					t.Errorf("%s workers=%d: %d trace events != unpooled %d, or contents differ",
						tag, workers, len(evs), len(refEvs))
				}
			}
		}
	}
}

// Timing mode must stay deterministic under the pool too — it is the
// mode the 1024-rank sweep runs in.
func TestPooledTimingDeterministic(t *testing.T) {
	ref, _ := runPooled(t, mmSrc, "vbus", false, -1)
	for _, workers := range []int{1, 4} {
		prog := compile(t, mmSrc)
		pp, err := postpass.Translate(prog, postpass.Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
		if err != nil {
			t.Fatalf("postpass: %v", err)
		}
		res, err := RunParallelConfig(LowerSPMD(pp), newCluster(t, 4), Timing, RunConfig{Workers: workers})
		if err != nil {
			t.Fatalf("timing run: %v", err)
		}
		if res.Elapsed != ref.Elapsed {
			t.Errorf("timing workers=%d: elapsed %v != full-mode unpooled %v", workers, res.Elapsed, ref.Elapsed)
		}
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := effectiveWorkers(3); got != 3 {
		t.Errorf("effectiveWorkers(3) = %d", got)
	}
	if got := effectiveWorkers(0); got < 1 {
		t.Errorf("effectiveWorkers(0) = %d, want >= 1", got)
	}
}
