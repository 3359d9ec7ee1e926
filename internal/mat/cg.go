package mat

import (
	"context"
	"math"

	"pdnsim/internal/simerr"
)

// DefaultCGTol is the relative residual target used when a CG solver is
// called with tol <= 0: five decades above RefineTarget, matching what
// √κ iterations of CG can actually deliver on the κ ≲ 1e8 plane Laplacians
// it serves, and well inside every downstream trust limit.
const DefaultCGTol = 1e-10

// cgCtxCheckEvery is how many CG iterations run between context checks: one
// check per iteration would be noise next to the O(n²) dense matvec, but
// the operator path's matvecs can be fast enough that a small batch keeps
// cancellation latency bounded without measurable cost.
const cgCtxCheckEvery = 8

// LinearOperator is a square linear operator usable by the iterative
// solvers: anything that can apply itself to a vector. Dense matrices,
// FFT-backed Toeplitz operators and matrix-free compositions (the extract
// package's reduction operators) all implement it.
type LinearOperator interface {
	// Size returns the operator dimension n (the operator maps R^n → R^n).
	Size() int
	// MulVecTo computes dst = A·x; len(dst) == len(x) == Size().
	MulVecTo(dst, x []float64)
}

// Preconditioner applies an SPD approximation of A⁻¹ to a residual.
type Preconditioner interface {
	// PrecondTo computes dst = M⁻¹·r; len(dst) == len(r).
	PrecondTo(dst, r []float64)
}

// denseOp adapts a dense square matrix to the LinearOperator interface.
type denseOp struct{ m *Matrix }

func (d denseOp) Size() int { return d.m.Rows }

func (d denseOp) MulVecTo(dst, x []float64) {
	n := d.m.Rows
	for i := 0; i < n; i++ {
		dst[i] = dot(d.m.Data[i*n:(i+1)*n], x)
	}
}

// jacobiPre is the diagonal (Jacobi) preconditioner.
type jacobiPre struct{ dinv []float64 }

func (j jacobiPre) PrecondTo(dst, r []float64) {
	for i := range r {
		dst[i] = j.dinv[i] * r[i]
	}
}

// ConjugateGradientCtx solves A·x = b for a symmetric positive-definite A
// with the Jacobi-preconditioned conjugate gradient method. It is the
// large-mesh alternative to the dense Cholesky factorisation: each iteration
// is O(n²) on the dense storage but the iteration count grows with √κ
// rather than paying the fixed O(n³) factorisation, which wins for the
// diagonally-dominant Laplacians the plane solvers produce. It is a dense
// LinearOperator adapter over ConjugateGradientOp.
//
// tol is the relative residual target (DefaultCGTol when <= 0); maxIter
// defaults to 10·n. Returns an error if A is not usable or convergence
// fails. The iteration loop checks ctx periodically (every cgCtxCheckEvery
// iterations) and abandons the solve with a simerr.ErrCancelled-class error
// once the context is done, so a large-mesh solve inside a timed-out
// extraction stops within a few matvecs instead of running to convergence.
//
//pdnlint:ignore ctxflow the only loop in this body is the O(n) Jacobi setup; the unbounded iteration loop lives in ConjugateGradientOp, which checks ctx every cgCtxCheckEvery iterations
func ConjugateGradientCtx(ctx context.Context, a *Matrix, b []float64, tol float64, maxIter int) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: CG requires a square matrix")
	}
	if len(b) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: CG rhs length mismatch")
	}
	// Jacobi preconditioner.
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if d <= 0 {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: CG needs positive diagonal, got %g at %d", d, i)
		}
		dinv[i] = 1 / d
	}
	x, _, err := ConjugateGradientOp(ctx, denseOp{a}, jacobiPre{dinv}, b, tol, maxIter)
	return x, err
}

// ConjugateGradientOp solves A·x = b for a symmetric positive-definite
// operator with preconditioned CG, without ever materialising A: each
// iteration costs one operator apply plus one preconditioner apply. This is
// the solver behind the FFT-accelerated Toeplitz path (an O(n log n) apply
// makes the whole solve superlinear instead of cubic). pre may be nil
// (unpreconditioned CG). Returns the solution and the number of iterations
// performed.
//
// tol is the relative residual target ‖b − A·x‖/‖b‖ (DefaultCGTol when
// <= 0); maxIter defaults to 10·n. The context is checked every
// cgCtxCheckEvery iterations.
func ConjugateGradientOp(ctx context.Context, op LinearOperator, pre Preconditioner, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := op.Size()
	if len(b) != n {
		return nil, 0, simerr.Tagf(simerr.ErrBadInput, "mat: CG rhs has %d entries, operator size %d", len(b), n)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, simerr.Tagf(simerr.ErrBadInput, "mat: CG rhs has non-finite entry %g at index %d", v, i)
		}
	}
	if tol <= 0 {
		tol = DefaultCGTol
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	x := make([]float64, n)
	r := append([]float64{}, b...)
	z := make([]float64, n)
	p := make([]float64, n)
	if pre != nil {
		pre.PrecondTo(z, r)
	} else {
		copy(z, r)
	}
	copy(p, z)
	rz := dot(r, z)
	bnorm := math.Sqrt(dot(b, b))
	if bnorm == 0 {
		return x, 0, nil
	}
	ap := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		if iter%cgCtxCheckEvery == 0 {
			if err := simerr.CheckCtx(ctx, "mat: conjugate gradient"); err != nil {
				return nil, iter, err
			}
		}
		op.MulVecTo(ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, iter, simerr.Tagf(simerr.ErrSingular, "mat: CG breakdown (operator not positive definite?)")
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(dot(r, r)) <= tol*bnorm {
			return x, iter + 1, nil
		}
		if pre != nil {
			pre.PrecondTo(z, r)
		} else {
			copy(z, r)
		}
		rzNew := dot(r, z)
		if rz == 0 {
			// Breakdown: the previous preconditioned residual vanished but
			// the convergence test above did not fire (r ⊥ M⁻¹r). Dividing
			// would make beta NaN and poison x; the current iterate is the
			// best available, so return it if it meets tolerance, otherwise
			// report the stall instead of fabricating NaNs.
			if math.Sqrt(dot(r, r)) <= tol*bnorm {
				return x, iter + 1, nil
			}
			return nil, iter, simerr.Tagf(simerr.ErrSingular, "mat: CG breakdown (rᵀ·M⁻¹·r vanished before convergence)")
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, maxIter, simerr.Tagf(simerr.ErrNonConvergence, "mat: CG did not converge in %d iterations", maxIter)
}
