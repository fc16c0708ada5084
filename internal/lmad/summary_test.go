package lmad

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryAddAndClassify(t *testing.T) {
	s := NewSummary()
	s.Add(WriteFirst, New("A", 0).WithDim(1, 9))
	s.Add(ReadOnly, New("B", 0).WithDim(1, 9))
	s.Add(WriteFirst, New("A", 0).WithDim(1, 9)) // duplicate
	if len(s.Sets[WriteFirst]) != 1 {
		t.Fatal("duplicate not dropped")
	}
	if got := s.Arrays(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("arrays = %v", got)
	}
	if len(s.Writes()) != 1 || len(s.Reads()) != 1 {
		t.Fatal("writes/reads wrong")
	}
}

// Figure 5's structure: integrating statement summaries into loop
// summaries; a region written in one statement and read in another
// (overlapping bounds) becomes ReadWrite.
func TestMergePromotesConflicts(t *testing.T) {
	s1 := NewSummary()
	s1.Add(WriteFirst, New("A", 0).WithDim(1, 99))
	s2 := NewSummary()
	s2.Add(ReadOnly, New("A", 50).WithDim(1, 99))
	s1.Merge(s2)
	if len(s1.Sets[ReadWrite]) != 2 {
		t.Fatalf("conflicting accesses not promoted: %s", s1)
	}
	if len(s1.Sets[WriteFirst]) != 0 || len(s1.Sets[ReadOnly]) != 0 {
		t.Fatalf("stale classifications remain: %s", s1)
	}
}

func TestMergeKeepsDisjoint(t *testing.T) {
	s1 := NewSummary()
	s1.Add(WriteFirst, New("A", 0).WithDim(1, 9))
	s2 := NewSummary()
	s2.Add(ReadOnly, New("A", 100).WithDim(1, 9))
	s1.Merge(s2)
	if len(s1.Sets[ReadWrite]) != 0 {
		t.Fatal("disjoint regions wrongly promoted")
	}
}

func TestMergeDifferentArraysNoConflict(t *testing.T) {
	s1 := NewSummary()
	s1.Add(WriteFirst, New("A", 0).WithDim(1, 9))
	s2 := NewSummary()
	s2.Add(ReadOnly, New("B", 0).WithDim(1, 9))
	s1.Merge(s2)
	if len(s1.Sets[ReadWrite]) != 0 {
		t.Fatal("different arrays wrongly promoted")
	}
}

// Definition 2 / Figure 8: splitting off the lowest dimension.
func TestSplit(t *testing.T) {
	l := New("A", 0).WithDim(24, 24).WithDim(14, 14).WithDim(3, 9)
	offsets, mapping := Split(l)
	if mapping.Stride != 3 || mapping.Span != 9 {
		t.Fatalf("mapping = %+v", mapping)
	}
	if offsets.Rank() != 2 {
		t.Fatalf("offsets rank = %d", offsets.Rank())
	}
	// The paper's offset lattice: 0*14+0*24, 1*14+0*24, 0*14+1*24,
	// 1*14+1*24 = {0, 14, 24, 38}.
	got := offsets.Enumerate(100)
	want := []int64{0, 14, 24, 38}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offset lattice = %v, want %v", got, want)
		}
	}
}

func TestSplitScalar(t *testing.T) {
	offsets, mapping := Split(New("X", 42))
	if offsets.Offset != 42 || offsets.Rank() != 0 {
		t.Fatalf("offsets = %+v", offsets)
	}
	if mapping.Trips() != 1 {
		t.Fatalf("mapping = %+v", mapping)
	}
}

// Figure 9: a stride-3 innermost region at the three granularities.
func TestPlanGranularities(t *testing.T) {
	// Innermost stride 3, 4 accesses per row; 2 rows 24 apart.
	l := New("A", 0).WithDim(24, 24).WithDim(3, 9)

	fine := Plan(l, 0, Fine)
	if len(fine) != 2 {
		t.Fatalf("fine messages = %d", len(fine))
	}
	for _, tr := range fine {
		if tr.Stride != 3 || tr.Elems != 4 {
			t.Fatalf("fine transfer = %+v", tr)
		}
	}

	middle := Plan(l, 0, Middle)
	if len(middle) != 2 {
		t.Fatalf("middle messages = %d", len(middle))
	}
	for _, tr := range middle {
		if tr.Stride != 1 || tr.Elems != 10 {
			t.Fatalf("middle transfer = %+v (want dense 10-element run)", tr)
		}
	}

	coarse := Plan(l, 0, Coarse)
	if len(coarse) != 1 {
		t.Fatalf("coarse messages = %d, want one bounding box", len(coarse))
	}
	if coarse[0].Offset != 0 || coarse[0].Elems != 34 || coarse[0].Stride != 1 {
		t.Fatalf("coarse transfer = %+v, want dense [0,33]", coarse[0])
	}
}

// The paper's message-count formulas: fine/middle send
// prod(trips of offset dims) messages; coarse sends trips(parallel dim).
func TestPlanMessageCounts(t *testing.T) {
	// 3 dims: I (parallel, 4 trips), J (5 trips), K innermost (7 trips).
	l := New("A", 0).WithDim(1000, 3000).WithDim(50, 200).WithDim(2, 12)
	if n := len(Plan(l, 0, Fine)); n != 4*5 {
		t.Fatalf("fine count = %d, want 20", n)
	}
	if n := len(Plan(l, 0, Middle)); n != 4*5 {
		t.Fatalf("middle count = %d, want 20", n)
	}
	if n := len(Plan(l, 0, Coarse)); n != 1 {
		t.Fatalf("coarse count = %d, want 1 (one box per processor)", n)
	}
}

// Coarse-grain regions are supersets: every fine element must appear in
// some coarse transfer (DESIGN.md invariant).
func TestCoarseCoversFine(t *testing.T) {
	l := New("A", 5).WithDim(100, 300).WithDim(7, 21)
	coarse := Plan(l, 0, Coarse)
	covered := func(off int64) bool {
		for _, tr := range coarse {
			if off >= tr.Offset && off < tr.Offset+tr.Elems {
				return true
			}
		}
		return false
	}
	for _, off := range l.Enumerate(1 << 16) {
		if !covered(off) {
			t.Fatalf("element %d not covered by coarse plan", off)
		}
	}
}

func TestMiddleCoversFine(t *testing.T) {
	l := New("A", 0).WithDim(40, 120).WithDim(3, 9)
	middle := Plan(l, 0, Middle)
	covered := func(off int64) bool {
		for _, tr := range middle {
			if off >= tr.Offset && off < tr.Offset+tr.Elems {
				return true
			}
		}
		return false
	}
	for _, off := range l.Enumerate(1 << 16) {
		if !covered(off) {
			t.Fatalf("element %d not covered by middle plan", off)
		}
	}
}

func TestPlanInvariantDescriptor(t *testing.T) {
	// Replicated data (parallelDim = -1) at coarse grain: one bounding
	// transfer.
	l := New("B", 10).WithDim(5, 20)
	plan := Plan(l, -1, Coarse)
	if len(plan) != 1 || plan[0].Offset != 10 || plan[0].Elems != 21 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestStats(t *testing.T) {
	l := New("A", 0).WithDim(24, 24).WithDim(3, 9)
	st := Stats(l, Plan(l, 0, Middle))
	if st.Messages != 2 || st.StridedMsgs != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Elements != 20 || st.ExactElements != 8 {
		t.Fatalf("redundancy accounting wrong: %+v", st)
	}
	stF := Stats(l, Plan(l, 0, Fine))
	if stF.StridedMsgs != 2 || stF.Elements != 8 {
		t.Fatalf("fine stats = %+v", stF)
	}
}

func TestParseGrain(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Grain
	}{{"fine", Fine}, {"Middle", Middle}, {"COARSE", Coarse}} {
		g, err := ParseGrain(c.in)
		if err != nil || g != c.want {
			t.Fatalf("ParseGrain(%q) = %v, %v", c.in, g, err)
		}
	}
	if _, err := ParseGrain("nope"); err == nil {
		t.Fatal("bad grain accepted")
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSummary()
	s.Add(WriteFirst, New("A", 0).WithDim(1, 9))
	s.Add(ReadOnly, New("B", 4).WithDim(2, 8))
	out := s.String()
	if !strings.Contains(out, "WriteFirst: A^{1}_{9}+0") || !strings.Contains(out, "ReadOnly: B^{2}_{8}+4") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestMergeContiguous(t *testing.T) {
	plan := []Transfer{
		{Offset: 10, Elems: 5, Stride: 1},
		{Offset: 0, Elems: 4, Stride: 1},
		{Offset: 4, Elems: 4, Stride: 1},  // adjacent to [0,4)
		{Offset: 12, Elems: 6, Stride: 1}, // overlaps [10,15)
		{Offset: 100, Elems: 3, Stride: 7},
	}
	got := MergeContiguous(plan)
	if len(got) != 3 {
		t.Fatalf("merged = %+v", got)
	}
	if got[0].Offset != 0 || got[0].Elems != 8 {
		t.Fatalf("first run = %+v", got[0])
	}
	if got[1].Offset != 10 || got[1].Elems != 8 {
		t.Fatalf("second run = %+v", got[1])
	}
	if got[2].Stride != 7 {
		t.Fatal("strided transfer lost")
	}
}

// A plan of one transfer is already minimal: it comes back as is
// (aliasing the input) and costs no allocation.
func TestMergeContiguousSingleAllocFree(t *testing.T) {
	for _, tr := range []Transfer{
		{Offset: 3, Elems: 9, Stride: 1},
		{Offset: 5, Elems: 4, Stride: 6, Packed: true},
	} {
		plan := []Transfer{tr}
		var got []Transfer
		allocs := testing.AllocsPerRun(100, func() { got = MergeContiguous(plan) })
		if allocs != 0 {
			t.Errorf("%+v: %v allocations per merge, want 0", tr, allocs)
		}
		if len(got) != 1 || got[0] != tr || &got[0] != &plan[0] {
			t.Errorf("%+v: merged to %+v, want the input plan itself", tr, got)
		}
	}
}

func TestMergeContiguousEmpty(t *testing.T) {
	if got := MergeContiguous(nil); len(got) != 0 {
		t.Fatalf("merge of nothing = %+v", got)
	}
}

// DESIGN.md §7: the split LMADs reconstruct the original — the offsets
// lattice crossed with the mapping dimension enumerates exactly the
// descriptor's access set, for random descriptors.
func TestSplitReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		rand := func(mod int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := (rng >> 33) % mod
			if v < 0 {
				v += mod
			}
			return v
		}
		l := New("A", rand(40))
		dims := rand(3) + 1
		for d := int64(0); d < dims; d++ {
			stride := rand(7) + 1
			trips := rand(6) + 1
			l = l.WithDim(stride, stride*(trips-1))
		}
		offsets, mapping := Split(l)
		rebuilt := map[int64]bool{}
		for _, off := range offsets.Enumerate(1 << 16) {
			for k := int64(0); k <= mapping.Span; k += mapping.Stride {
				rebuilt[off+k] = true
			}
		}
		want := l.Enumerate(1 << 16)
		if int64(len(rebuilt)) != int64(len(want)) {
			return false
		}
		for _, o := range want {
			if !rebuilt[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
