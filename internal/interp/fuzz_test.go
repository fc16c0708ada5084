package interp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
)

// progGen builds random-but-valid Fortran 77 programs exercising the
// whole pipeline: mixes of parallelizable elementwise loops, strided
// writes, 2-D nests, reductions, scalar broadcasts, and deliberately
// serial recurrences. The differential test below checks that the SPMD
// translation computes exactly what the sequential program does, for
// every grain and processor count.
type progGen struct {
	rng  *rand.Rand
	sb   strings.Builder
	arrs []string // 1-D arrays
	mats []string // 2-D arrays
	n    int
}

func newProgGen(seed int64) *progGen {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.n = 8 + g.rng.Intn(17) // 8..24
	na := 2 + g.rng.Intn(2)
	for i := 0; i < na; i++ {
		g.arrs = append(g.arrs, fmt.Sprintf("V%d", i))
	}
	nm := 1 + g.rng.Intn(2)
	for i := 0; i < nm; i++ {
		g.mats = append(g.mats, fmt.Sprintf("M%d", i))
	}
	return g
}

func (g *progGen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

// expr1 builds a random scalar expression over 1-D array elements at
// index idx.
func (g *progGen) expr1(idx string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s(%s)", g.pick(g.arrs), idx)
		case 1:
			return fmt.Sprintf("%.1f", float64(g.rng.Intn(9))+0.5)
		case 2:
			return fmt.Sprintf("REAL(%s)", idx)
		default:
			return "X"
		}
	}
	l := g.expr1(idx, depth-1)
	r := g.expr1(idx, depth-1)
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * 0.5 + %s)", l, r)
	default:
		return fmt.Sprintf("ABS(%s)", l)
	}
}

func (g *progGen) line(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

// Generate returns the program text.
func (g *progGen) Generate() string {
	g.line("      PROGRAM FUZZ")
	g.line("      INTEGER N")
	g.line("      PARAMETER (N = %d)", g.n)
	for _, a := range g.arrs {
		g.line("      REAL %s(2*N)", a)
	}
	for _, m := range g.mats {
		g.line("      REAL %s(N,N)", m)
	}
	g.line("      REAL X, S")
	g.line("      INTEGER I, J")
	g.line("      X = 1.5")
	g.line("      S = 0.0")
	// Initialization loops so every array is defined before use.
	for _, a := range g.arrs {
		g.line("      DO I = 1, 2*N")
		g.line("        %s(I) = REAL(I) * %0.2f", a, 0.25+float64(g.rng.Intn(4)))
		g.line("      ENDDO")
	}
	for _, m := range g.mats {
		g.line("      DO I = 1, N")
		g.line("        DO J = 1, N")
		g.line("          %s(I,J) = REAL(I) - REAL(J) * 0.5", m)
		g.line("        ENDDO")
		g.line("      ENDDO")
	}
	// Random body regions.
	regions := 2 + g.rng.Intn(3)
	for r := 0; r < regions; r++ {
		switch g.rng.Intn(9) {
		case 0: // elementwise over a 1-D array
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        %s(I) = %s", dst, g.expr1("I", 2))
			g.line("      ENDDO")
		case 1: // strided (CFFT-like) writes
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, N")
			g.line("        %s(2*I-1) = %s", dst, g.expr1("I", 1))
			g.line("        %s(2*I) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		case 2: // 2-D elementwise with scalar broadcast
			dst := g.pick(g.mats)
			g.line("      DO I = 1, N")
			g.line("        DO J = 1, N")
			g.line("          %s(I,J) = %s(I,J) * X + REAL(I+J)", dst, dst)
			g.line("        ENDDO")
			g.line("      ENDDO")
		case 3: // sum reduction
			src := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        S = S + %s(I)", src)
			g.line("      ENDDO")
			g.line("      X = S * 0.125")
		case 4: // serial recurrence (must stay on the master)
			dst := g.pick(g.arrs)
			g.line("      DO I = 2, 2*N")
			g.line("        %s(I) = %s(I-1) * 0.5 + %s(I)", dst, dst, dst)
			g.line("      ENDDO")
		case 6: // reversed subscript (negative coefficient)
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        %s(2*N - I + 1) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		case 8: // triangular 2-D update (cyclic schedule)
			dst := g.pick(g.mats)
			g.line("      DO I = 1, N")
			g.line("        DO J = I, N")
			g.line("          %s(J,I) = %s(J,I) * 0.5 + REAL(I)", dst, dst)
			g.line("        ENDDO")
			g.line("      ENDDO")
		case 7: // downward loop
			dst := g.pick(g.arrs)
			g.line("      DO I = 2*N, 1, -1")
			g.line("        %s(I) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		default: // privatizable temporary
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        X = %s(I) * 2.0", dst)
			g.line("        %s(I) = X + 1.0", dst)
			g.line("      ENDDO")
			g.line("      X = 1.5")
		}
	}
	g.line("      PRINT *, S, X")
	g.line("      END")
	return g.sb.String()
}

// TestFuzzParallelEqualsSequential is the whole-pipeline differential
// test: for dozens of random programs, the compiled SPMD execution on
// 1..4 processors at every granularity must produce the master memory
// the sequential execution produces (reductions compared with an FP
// reassociation tolerance; everything else exactly).
func TestFuzzParallelEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz differential test skipped in -short mode")
	}
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := newProgGen(seed)
			src := g.Generate()
			prog := compile(t, src)
			cl := newCluster(t, 1)
			seq, err := RunSequential(Lower(prog), cl, Full)
			if err != nil {
				t.Fatalf("sequential: %v\n%s", err, src)
			}
			grain := []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse}[seed%3]
			procs := int(seed%4) + 1
			lock := seed%2 == 0
			twoSided := seed%5 == 0
			pull := seed%3 == 0 && !twoSided
			pp, err := postpass.Translate(prog, postpass.Options{
				NumProcs: procs, Grain: grain, LiveOutAll: true,
				LockReductions: lock, TwoSided: twoSided, PullScatter: pull,
			})
			if err != nil {
				t.Fatalf("postpass: %v\n%s", err, src)
			}
			par, err := RunParallel(LowerSPMD(pp), newCluster(t, procs), Full)
			if err != nil {
				t.Fatalf("parallel: %v\n%s", err, src)
			}
			for name, want := range seq.Mem {
				got, ok := par.Mem[name]
				if !ok {
					continue // compiler temporaries may differ by rank
				}
				if len(got) != len(want) {
					t.Fatalf("%s length mismatch\n%s", name, src)
				}
				for i := range want {
					diff := math.Abs(want[i] - got[i])
					if diff > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("grain=%v procs=%d lock=%v two=%v: %s[%d] = %g, want %g\nprogram:\n%s",
							grain, procs, lock, twoSided, name, i, got[i], want[i], src)
					}
				}
			}
		})
	}
}

// TestFuzzFormatRoundTrip: formatting a random program and reparsing
// it must produce identical sequential results.
func TestFuzzFormatRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	for seed := int64(200); seed < 230; seed++ {
		src := newProgGen(seed).Generate()
		orig, err := f77.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		formatted := f77.Format(orig)
		a := compile(t, src)
		b, err := f77.Parse(formatted)
		if err != nil {
			t.Fatalf("seed %d reparse: %v\n%s", seed, err, formatted)
		}
		if err := analysis.FrontEnd(b); err != nil {
			t.Fatalf("seed %d front end: %v", seed, err)
		}
		ra, err := RunSequential(Lower(a), newCluster(t, 1), Full)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunSequential(Lower(b), newCluster(t, 1), Full)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range ra.Mem {
			got, ok := rb.Mem[name]
			if !ok || len(got) != len(want) {
				continue
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d: %s[%d] = %g vs %g\nformatted:\n%s", seed, name, i, want[i], got[i], formatted)
				}
			}
		}
	}
}

// TestFuzzTimingEqualsFull checks the timing-mode invariant on random
// programs: identical virtual time with and without real execution.
func TestFuzzTimingEqualsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz timing test skipped in -short mode")
	}
	for seed := int64(100); seed < 115; seed++ {
		g := newProgGen(seed)
		src := g.Generate()
		prog := compile(t, src)
		full, err := RunSequential(Lower(prog), newCluster(t, 1), Full)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		timing, err := RunSequential(Lower(compile(t, src)), newCluster(t, 1), Timing)
		if err != nil {
			t.Fatalf("seed %d timing: %v", seed, err)
		}
		if full.Elapsed != timing.Elapsed {
			t.Fatalf("seed %d: full %v != timing %v\n%s", seed, full.Elapsed, timing.Elapsed, src)
		}
	}
}
