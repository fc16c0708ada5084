package cluster

import (
	"errors"
	"testing"

	"vbuscluster/internal/mesh"
)

func TestNewRejectsBadGeometry(t *testing.T) {
	p := DefaultParams()
	p.MeshDims = []int{4, 0, 4}
	if _, err := New(4, p); !errors.Is(err, mesh.ErrBadGeometry) {
		t.Fatalf("zero dimension: got %v, want mesh.ErrBadGeometry", err)
	}
	p = DefaultParams()
	p.MeshDims = []int{2, 2, 2}
	if _, err := New(9, p); !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("9 ranks on 8 nodes: got %v, want mesh.ErrGeometryMismatch", err)
	}
	p = DefaultParams()
	p.MeshWidth, p.MeshHeight = 2, 2
	if _, err := New(5, p); !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("5 ranks on 2x2: got %v, want mesh.ErrGeometryMismatch", err)
	}
	p = DefaultParams()
	p.MeshDims = []int{2, 2, 2}
	if _, err := New(8, p); err != nil {
		t.Fatalf("exact-fit 3D geometry rejected: %v", err)
	}
}

func TestHops3DTorus(t *testing.T) {
	p := DefaultParams()
	p.MeshDims = []int{4, 4, 4}
	if h := p.Hops(0, 63); h != 9 {
		t.Fatalf("3D mesh corner hops = %d, want 9", h)
	}
	p.Torus = true
	if h := p.Hops(0, 63); h != 3 {
		t.Fatalf("3D torus corner hops = %d, want 3", h)
	}
	// Path agrees with Hops on every pair, endpoints included.
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			if got, want := len(p.Path(a, b)), p.Hops(a, b)+1; got != want {
				t.Fatalf("path(%d,%d) has %d nodes, want %d", a, b, got, want)
			}
		}
	}
}

// The N-dim Hops must reproduce the legacy 2D arithmetic exactly when
// the geometry is 2D — the runtime's charging depends on it.
func TestHops2DCompat(t *testing.T) {
	p := DefaultParams()
	p.MeshWidth, p.MeshHeight = 4, 3
	legacy := func(a, b int) int {
		ax, ay := a%4, a/4
		bx, by := b%4, b/4
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	for a := 0; a < 12; a++ {
		for b := 0; b < 12; b++ {
			if got, want := p.Hops(a, b), legacy(a, b); got != want {
				t.Fatalf("hops(%d,%d) = %d, legacy %d", a, b, got, want)
			}
		}
	}
}

// Hops runs on every charged transfer: it must not allocate, on the
// default 2-D mesh or on an N-D torus.
func TestHopsAllocFree(t *testing.T) {
	flat := DefaultParams()
	flat.MeshWidth, flat.MeshHeight = 32, 32
	nd := DefaultParams()
	nd.MeshDims = []int{8, 8, 16}
	nd.Torus = true
	for name, p := range map[string]Params{"2d": flat, "3d-torus": nd} {
		sink := 0
		allocs := testing.AllocsPerRun(100, func() {
			sink += p.Hops(3, 1000)
		})
		if allocs != 0 {
			t.Errorf("%s: Hops allocates %v times per call, want 0", name, allocs)
		}
		if sink == 0 {
			t.Errorf("%s: Hops(3, 1000) = 0", name)
		}
	}
}
