package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/mat"
	"pdnsim/internal/sparam"
)

// Output-check tolerances. They are the program's own published contracts,
// not values fitted to this benchmark's inputs.
const (
	// symTol: extraction symmetrises anything above diag.SymWarnTol, so a
	// returned operator must be at least that symmetric.
	symTol = diag.SymWarnTol
	// psdTol: diag escalates eigenvalues below -1e3·EigClipRel·λmax as
	// "not PSD"; that is the line a returned operator must stay above.
	psdTol = 1e3 * diag.EigClipRel
	// nullTol bounds |Γ·1|∞ relative to Γ's largest diagonal entry: the
	// reduced inverse-inductance Laplacian keeps the ones-nullspace (a
	// uniform potential drives no current) up to Schur-complement roundoff.
	nullTol = 1e-9
	// capTol bounds the relative mismatch between the reduced network's
	// total capacitance and the assembly's: Guyan reduction preserves it
	// exactly up to roundoff (the same 1e-9 the Foster-model tests use).
	capTol = 1e-9
	// fig8RMSBand is the equivalent-circuit vs FDTD normalised RMS band the
	// Fig. 8 experiment is held to in its tests (EXPERIMENTS.md reports 2.6%).
	fig8RMSBand = 0.12
)

// tally counts checked operations and failures. Every failing check lands
// here, with its reason; nothing is dropped.
type tally struct {
	attempted, failed int
	reasons           []string
}

// record counts one operation: err == nil passes.
func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.reasons = append(t.reasons, fmt.Sprintf("%s: %v", what, err))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.reasons = append(t.reasons, o.reasons...)
}

// checkSymPSD checks that m is symmetric and positive semidefinite within
// the contracts above.
func checkSymPSD(name string, m *mat.Matrix) error {
	if a := m.Asymmetry(); !(a <= symTol) {
		return fmt.Errorf("%s asymmetry %.3g > %.3g", name, a, symTol)
	}
	vals, _, err := mat.JacobiEigen(m)
	if err != nil {
		return fmt.Errorf("%s eigenvalues: %w", name, err)
	}
	lmax := math.Max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1]))
	if vals[0] < -psdTol*lmax || math.IsNaN(vals[0]) {
		return fmt.Errorf("%s min eigenvalue %.3g below -%.0e·λmax (%.3g)", name, vals[0], psdTol, lmax)
	}
	return nil
}

// checkNetwork checks the reduced network's physics invariants: symmetric
// PSD Γ and C, and Γ·1 ≈ 0.
func checkNetwork(nw *extract.Network) error {
	if nw == nil || nw.Gamma == nil || nw.C == nil {
		return fmt.Errorf("no network")
	}
	if err := checkSymPSD("reduced C", nw.C); err != nil {
		return err
	}
	if err := checkSymPSD("reduced Γ", nw.Gamma); err != nil {
		return err
	}
	var diagMax, rowMax float64
	for i := 0; i < nw.Gamma.Rows; i++ {
		diagMax = math.Max(diagMax, math.Abs(nw.Gamma.At(i, i)))
		var s float64
		for j := 0; j < nw.Gamma.Cols; j++ {
			s += nw.Gamma.At(i, j)
		}
		rowMax = math.Max(rowMax, math.Abs(s))
	}
	if !(rowMax <= nullTol*diagMax) {
		return fmt.Errorf("|Γ·1|∞ = %.3g exceeds %.0e·max Γii (%.3g)", rowMax, nullTol, diagMax)
	}
	return nil
}

// checkSweep requires every point present, passive and reciprocal.
func checkSweep(sw *sparam.Sweep, want int) error {
	if sw == nil || len(sw.Points) != want {
		got := 0
		if sw != nil {
			got = len(sw.Points)
		}
		return fmt.Errorf("sweep has %d of %d points", got, want)
	}
	if err := sw.Verify(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// checkCapacitance compares the reduced network's total capacitance with the
// assembly's.
func checkCapacitance(netC, asmC float64) error {
	if rel := math.Abs(netC-asmC) / math.Abs(asmC); !(rel <= capTol) {
		return fmt.Errorf("total capacitance %.9g F vs assembly %.9g F (relative %.3g > %.0e)", netC, asmC, rel, capTol)
	}
	return nil
}

// checkFinite requires every sample of every waveform to be finite.
func checkFinite(name string, ws ...[]float64) error {
	for k, w := range ws {
		for i, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s waveform %d sample %d is %g", name, k, i, v)
			}
		}
	}
	return nil
}

// digest is an order-sensitive hash of float64 bit patterns: two outputs
// are bitwise identical exactly when their digests agree (up to FNV
// collisions).
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: fnv.New64a().Sum64()} }

func (d *digest) floats(v ...float64) {
	const prime = 1099511628211
	for _, x := range v {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			d.h ^= b & 0xff
			d.h *= prime
			b >>= 8
		}
	}
}

func (d *digest) complex(m *mat.CMatrix) {
	for _, z := range m.Data {
		d.floats(real(z), imag(z))
	}
}
