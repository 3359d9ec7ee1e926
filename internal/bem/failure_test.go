package bem

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/simerr"
)

func TestAssembleBadInputClass(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 1e-3, 1e-3), 2, 2)
	k := mustKernel(t, greens.FreeSpace, 0, 1, 1)
	if _, err := Assemble(nil, k, DefaultOptions()); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("nil mesh must be ErrBadInput, got %v", err)
	}
	bad := DefaultOptions()
	bad.SheetResistance = math.NaN()
	if _, err := Assemble(m, k, bad); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN sheet resistance must be ErrBadInput, got %v", err)
	}
	bad = DefaultOptions()
	bad.SheetResistance = -1
	if _, err := Assemble(m, k, bad); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("negative sheet resistance must be ErrBadInput, got %v", err)
	}
}

func TestAssembleCancelledBeforeStart(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 10e-3), 8, 8)
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.5, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AssembleCtx(ctx, m, k, DefaultOptions())
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("expired context must surface ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the context cause must stay in the chain, got %v", err)
	}
}

func TestAssembleMidRunCancellation(t *testing.T) {
	// A kernel with a deep image series makes each panel integral slow
	// enough that cancelling after a short delay lands mid-assembly.
	m := mustMesh(t, geom.RectShape(0, 0, 50e-3, 40e-3), 16, 16)
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.5, 200)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := AssembleCtx(ctx, m, k, DefaultOptions())
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("a cancelled assembly must return nil-or-ErrCancelled, got %v", err)
	}
}

func TestAssembleCtxMatchesAssemble(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 10e-3), 6, 6)
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.5, 10)
	a1, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AssembleCtx(context.Background(), m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.P.Data {
		if a1.P.Data[i] != a2.P.Data[i] {
			t.Fatalf("P mismatch at %d: %g vs %g", i, a1.P.Data[i], a2.P.Data[i])
		}
	}
	for i := range a1.L.Data {
		if a1.L.Data[i] != a2.L.Data[i] {
			t.Fatalf("L mismatch at %d: %g vs %g", i, a1.L.Data[i], a2.L.Data[i])
		}
	}
}

func TestDCPotentialBadInputClass(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 2e-3, 2e-3), 3, 3)
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.5, 10)
	lossless, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lossless.DCPotential(context.Background(), map[int]float64{0: 1e-3}, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("lossless assembly has no DC network; want ErrBadInput, got %v", err)
	}
	opts := DefaultOptions()
	opts.SheetResistance = 6e-3
	lossy, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lossy.DCPotential(context.Background(), map[int]float64{0: 1e-3}, -1); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("out-of-range reference cell must be ErrBadInput, got %v", err)
	}
	if _, err := lossy.DCPotential(context.Background(), map[int]float64{10_000: 1e-3}, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("out-of-range injection cell must be ErrBadInput, got %v", err)
	}
}
