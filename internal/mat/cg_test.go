package mat

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCGMatchesCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xc, err := ConjugateGradientCtx(context.Background(), a, b, 1e-12, 0)
		if err != nil {
			return false
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		xd, err := ch.Solve(b)
		if err != nil {
			return false
		}
		for i := range xc {
			if !almostEq(xc[i], xd[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCGLaplacianChain(t *testing.T) {
	// Grounded Laplacian of a resistor chain: exact solution is linear.
	n := 50
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i > 0 {
			a.Set(i, i-1, -1)
		}
		if i < n-1 {
			a.Set(i, i+1, -1)
		}
	}
	// Inject 1 A at the far end of the grounded chain.
	b := make([]float64, n)
	b[n-1] = 1
	x, err := ConjugateGradientCtx(context.Background(), a, b, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	// V_k = (k+1) · 1 Ω · ... for the chain grounded on both implicit ends
	// the exact check is the residual.
	r := a.MulVec(x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("residual at %d: %g", i, r[i]-b[i])
		}
	}
}

func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		out := make([]int, n)
		ParallelFor(n, func(i int) { out[i] = i * i })
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("n=%d: slot %d = %d", n, i, out[i])
			}
		}
	}
}

func TestCGValidation(t *testing.T) {
	if _, err := ConjugateGradientCtx(context.Background(), New(2, 3), []float64{1, 2}, 0, 0); err == nil {
		t.Fatal("non-square must error")
	}
	if _, err := ConjugateGradientCtx(context.Background(), Eye(2), []float64{1}, 0, 0); err == nil {
		t.Fatal("rhs mismatch must error")
	}
	bad := FromRows([][]float64{{0, 0}, {0, 1}})
	if _, err := ConjugateGradientCtx(context.Background(), bad, []float64{1, 1}, 0, 0); err == nil {
		t.Fatal("zero diagonal must error")
	}
	// [1,-1] is the eigenvector of the negative eigenvalue, forcing the
	// p·A·p breakdown check to fire. (With b = [1,1] — the positive
	// eigendirection — CG would legitimately converge.)
	indef := FromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := ConjugateGradientCtx(context.Background(), indef, []float64{1, -1}, 0, 0); err == nil {
		t.Fatal("indefinite matrix must error")
	}
	// Zero RHS short-circuits to zero.
	x, err := ConjugateGradientCtx(context.Background(), Eye(3), []float64{0, 0, 0}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}
