package interp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vbuscluster/internal/ckpt"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
)

// resSrc is the recovery property-test program: three parallel regions
// and a sequential tail, deliberately reduction-free — every output
// element is owned by exactly one rank, so the result is bitwise
// independent of the rank count and a shrunken replay must reproduce
// the fault-free bytes exactly.
const resSrc = `
      PROGRAM RES
      INTEGER N
      PARAMETER (N = 10)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J)
          B(I,J) = REAL(I-J)
          C(I,J) = 0.0
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N
          C(I,J) = C(I,J) * 2.0 + A(I,J)
        ENDDO
      ENDDO
      PRINT *, C(1,1)
      PRINT *, C(10,10)
      END
`

// runResilientTest compiles resSrc for the named fabric and runs it
// resiliently under the given fault spec ("" = fault-free).
func runResilientTest(t *testing.T, fabric, spec string, procs, ckptEvery int, mode Mode, dir string) (*Result, error) {
	t.Helper()
	prog := compile(t, resSrc)
	translate := func(n int) (*postpass.Program, error) {
		return postpass.Translate(prog, postpass.Options{
			NumProcs:   n,
			Grain:      lmad.Fine,
			LiveOutAll: true,
			Resilient:  true,
			CkptEvery:  ckptEvery,
		})
	}
	pp, err := translate(procs)
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatalf("fabric %s: %v", fabric, err)
	}
	if spec != "" {
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatalf("fault spec %q: %v", spec, err)
		}
		params.Faults = inj
	}
	cl, err := cluster.New(procs, params)
	if err != nil {
		t.Fatal(err)
	}
	return RunResilient(LowerSPMD(pp), cl, mode, ResilientConfig{Retranslate: translate, Dir: dir})
}

// memIdentical compares two result memories bit for bit.
func memIdentical(t *testing.T, label string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrays vs %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: array %s missing or resized", label, name)
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %g, want %g (bitwise)", label, name, i, g[i], w[i])
			}
		}
	}
}

// TestResilientMatchesPlainRun: with no faults, the resilient runner
// produces exactly the plain parallel run's memory and output — the
// checkpoint rounds only cost virtual time.
func TestResilientMatchesPlainRun(t *testing.T) {
	base := runPar(t, resSrc, 4, lmad.Fine, Full)
	res, err := runResilientTest(t, "vbus", "", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	memIdentical(t, "fault-free resilient", res.Mem, base.Mem)
	if res.Output != base.Output {
		t.Fatalf("output %q, want %q", res.Output, base.Output)
	}
	if res.Recoveries != 0 {
		t.Fatalf("fault-free run reported %d recoveries", res.Recoveries)
	}
	if res.Checkpoints == 0 {
		t.Fatal("resilient run committed no checkpoints")
	}
}

// TestRecoveredRunBitIdentical is the recovery property: a rank killed
// after any operation budget — before the first checkpoint, between
// checkpoints, deep into the run — yields a completed run whose output
// arrays and printed output are byte-identical to the fault-free run,
// on every interconnect backend.
func TestRecoveredRunBitIdentical(t *testing.T) {
	for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
		base, err := runResilientTest(t, fabric, "", 4, 1, Full, "")
		if err != nil {
			t.Fatalf("%s baseline: %v", fabric, err)
		}
		for _, budget := range []int{0, 1, 5, 9, 14, 20} {
			spec := fmt.Sprintf("seed=0,crashafter=1/%d", budget)
			t.Run(fmt.Sprintf("%s/kill@%d", fabric, budget), func(t *testing.T) {
				res, err := runResilientTest(t, fabric, spec, 4, 1, Full, "")
				if err != nil {
					t.Fatalf("resilient run under %s: %v", spec, err)
				}
				memIdentical(t, "recovered", res.Mem, base.Mem)
				if res.Output != base.Output {
					t.Fatalf("output %q, want %q", res.Output, base.Output)
				}
				if res.Recoveries != 1 {
					t.Fatalf("recoveries = %d, want 1", res.Recoveries)
				}
			})
		}
	}
}

// TestResilientSurvivesTwoCrashes: two ranks with separate budgets die
// at different points; two shrink-and-replay rounds still reach the
// fault-free bytes.
func TestResilientSurvivesTwoCrashes(t *testing.T) {
	base, err := runResilientTest(t, "vbus", "", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := runResilientTest(t, "vbus", "seed=0,crashafter=1/3,crashafter=3/30", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	memIdentical(t, "twice-recovered", res.Mem, base.Mem)
	if res.Output != base.Output {
		t.Fatalf("output %q, want %q", res.Output, base.Output)
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", res.Recoveries)
	}
}

// TestResilientPersistsCheckpoints: with a checkpoint directory, every
// committed epoch snapshot lands on disk and decodes cleanly.
func TestResilientPersistsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	res, err := runResilientTest(t, "vbus", "", 4, 1, Full, dir)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != res.Checkpoints {
		t.Fatalf("%d checkpoint files, committed %d", len(ents), res.Checkpoints)
	}
	for _, ent := range ents {
		blob, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.Decode(blob); err != nil {
			t.Fatalf("%s does not decode: %v", ent.Name(), err)
		}
	}
}
