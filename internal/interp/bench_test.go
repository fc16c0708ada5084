package interp_test

import (
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

// The interpreter layer's own benchmarks: each compiles once outside
// the timed loop and then measures runs of the cached plan, so the
// numbers are statement execution, rank scheduling and charging, not
// the compiler. `make bench-smoke` runs each once.

// BenchmarkInterpFullMM64 is MM 64x64 on 4 ranks in Full mode: every
// iteration executes, so it is almost all statement execution.
func BenchmarkInterpFullMM64(b *testing.B) {
	benchRun(b, bench.MMSource(64), core.Options{NumProcs: 4, Grain: lmad.Coarse}, core.Full)
}

// BenchmarkInterpTimingMM1024 is MM 1024x1024 on 1024 ranks in Timing
// mode: loops are charged in closed form, so it measures per-rank set
// up, region scheduling, barriers and the result hand-over.
func BenchmarkInterpTimingMM1024(b *testing.B) {
	benchRun(b, bench.MMSource(1024), core.Options{NumProcs: 1024, Grain: lmad.Coarse}, core.Timing)
}

func benchRun(b *testing.B, src string, opts core.Options, mode core.Mode) {
	c, err := core.Compile(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunParallel(mode); err != nil {
			b.Fatal(err)
		}
	}
}
