package mat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"pdnsim/internal/simerr"
)

func TestConjugateGradientCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 40)
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ConjugateGradientCtx(ctx, a, b, 1e-12, 0); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled from a pre-cancelled context, got %v", err)
	}
	// A live context still solves.
	if _, err := ConjugateGradientCtx(context.Background(), a, b, 1e-10, 0); err != nil {
		t.Fatalf("uncancelled solve failed: %v", err)
	}
}

func TestConjugateGradientOpToeplitzMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nx, ny := 10, 9
	tb := randomKernelTable(nx, ny, rng)
	// Make the table strongly diagonally dominant so the Toeplitz matrix is
	// comfortably SPD (the BEM self term dominates the same way).
	tb[0] += float64(nx * ny)
	op, err := NewToeplitzOp(nx, ny, tb, fullGridCoords(nx, ny))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, op.Size())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, iters, err := ConjugateGradientOp(context.Background(), op, op, b, 1e-12, 0)
	if err != nil {
		t.Fatalf("operator CG failed after %d iters: %v", iters, err)
	}
	ch, err := NewCholesky(op.Dense())
	if err != nil {
		t.Fatal(err)
	}
	xd, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xd[i], 1e-8) {
			t.Fatalf("x[%d] = %g, Cholesky %g", i, x[i], xd[i])
		}
	}
	if op.HasPreconditioner() {
		// The circulant preconditioner must not change the answer, only the
		// iteration count.
		xu, itu, err := ConjugateGradientOp(context.Background(), op, nil, b, 1e-12, 0)
		if err != nil {
			t.Fatalf("unpreconditioned CG failed: %v", err)
		}
		if iters > itu {
			t.Fatalf("circulant preconditioner made CG slower: %d vs %d iterations", iters, itu)
		}
		for i := range xu {
			if !almostEq(xu[i], xd[i], 1e-8) {
				t.Fatalf("unpreconditioned x[%d] = %g, Cholesky %g", i, xu[i], xd[i])
			}
		}
	}
}

func TestConjugateGradientOpRejectsBadRHS(t *testing.T) {
	op := denseOp{Eye(3)}
	if _, _, err := ConjugateGradientOp(context.Background(), op, nil, []float64{1, 2}, 0, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("want ErrBadInput for short rhs, got %v", err)
	}
	if _, _, err := ConjugateGradientOp(context.Background(), op, nil, []float64{1, math.NaN(), 3}, 0, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("want ErrBadInput for NaN rhs, got %v", err)
	}
}

func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, bw := 30, 4
	// Random symmetric band matrix made diagonally dominant.
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i - bw; j <= i; j++ {
			if j < 0 {
				continue
			}
			v := rng.NormFloat64()
			if i == j {
				v = float64(2*bw) + 1 + rng.Float64()
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	bc, err := NewBandCholesky(n, bw, PackBand(a, bw))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := bc.Solve(b)
	want, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !almostEq(got[i], want[i], 1e-10) {
			t.Fatalf("band solve[%d] = %g, dense %g", i, got[i], want[i])
		}
	}
	// In-place aliased solve gives the identical result.
	alias := append([]float64(nil), b...)
	bc.SolveTo(alias, alias)
	for i := range alias {
		if alias[i] != got[i] {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, alias[i], got[i])
		}
	}
}

func TestBandCholeskyRejectsIndefinite(t *testing.T) {
	// [[1, 2], [2, 1]] has a negative eigenvalue.
	a := FromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := NewBandCholesky(2, 1, PackBand(a, 1)); !errors.Is(err, simerr.ErrSingular) {
		t.Fatalf("want ErrSingular for indefinite matrix, got %v", err)
	}
	if _, err := NewBandCholesky(0, 0, nil); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("want ErrBadInput for n=0, got %v", err)
	}
	if _, err := NewBandCholesky(3, 1, []float64{1}); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("want ErrBadInput for wrong storage size, got %v", err)
	}
}
