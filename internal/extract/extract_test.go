package extract

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
)

// buildPlane assembles a square plane pair with one corner port and returns
// the assembly.
func buildPlane(t testing.TB, side, h, epsR float64, n int, ports []geom.Point, names []string) *bem.Assembly {
	t.Helper()
	m, err := mesh.Grid(geom.RectShape(0, 0, side, side), n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		if _, err := m.AddPort(names[i], p); err != nil {
			t.Fatal(err)
		}
	}
	k, err := greens.NewKernel(greens.OverGround, h, epsR, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bem.Assemble(m, k, bem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(nil, Options{}); err == nil {
		t.Fatal("nil assembly must error")
	}
	m, _ := mesh.Grid(geom.RectShape(0, 0, 1e-2, 1e-2), 3, 3)
	k, _ := greens.NewKernel(greens.OverGround, 1e-3, 4, 1)
	a, err := bem.Assemble(m, k, bem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(a, Options{}); err == nil {
		t.Fatal("portless mesh must error")
	}
}

func TestExtractDisconnectedMesh(t *testing.T) {
	// A slot narrower than the grid pitch splits the mesh into two
	// conductive islands. The EM extraction still succeeds — the islands
	// remain magnetically and capacitively coupled through the fields (the
	// full-mutual Γ operator is not graph-local) — but the DC resistive
	// solve must fail cleanly: no conduction crosses the slot.
	sh := geom.RectShape(0, 0, 20e-3, 10e-3)
	sh.Holes = []geom.Polygon{{
		{X: 9.5e-3, Y: -1e-3}, {X: 10.5e-3, Y: -1e-3},
		{X: 10.5e-3, Y: 11e-3}, {X: 9.5e-3, Y: 11e-3},
	}}
	m, err := mesh.Grid(sh, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Connected() {
		t.Fatal("fixture should be disconnected")
	}
	if _, err := m.AddPort("P", geom.Point{X: 1e-3, Y: 1e-3}); err != nil {
		t.Fatal(err)
	}
	k, _ := greens.NewKernel(greens.OverGround, 0.3e-3, 4.5, 1)
	opts := bem.DefaultOptions()
	opts.SheetResistance = 1e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Extract(a, Options{ExtraNodes: 0})
	if err != nil {
		t.Fatalf("field extraction of coupled islands should succeed: %v", err)
	}
	if nw.TotalCapacitance() <= 0 {
		t.Fatal("extraction lost the plane capacitance")
	}
	// Conductive IR-drop across the slot is impossible.
	far := m.NearestCell(geom.Point{X: 19e-3, Y: 9e-3})
	if _, err := a.DCPotential(context.Background(), map[int]float64{far: 1}, m.Ports[0].Cell); err == nil {
		t.Fatal("DC solve across the slot must fail")
	}
}

func TestExtractNodeSelection(t *testing.T) {
	a := buildPlane(t, 10e-3, 0.3e-3, 4.5, 6,
		[]geom.Point{{X: 0, Y: 0}, {X: 10e-3, Y: 10e-3}}, []string{"P1", "P2"})
	nw, err := Extract(a, Options{ExtraNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPorts != 2 || nw.NumNodes() != 12 {
		t.Fatalf("nodes=%d ports=%d", nw.NumNodes(), nw.NumPorts)
	}
	// Requesting more extra nodes than cells clamps to all cells.
	nw2, err := Extract(a, Options{ExtraNodes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if nw2.NumNodes() != 36 {
		t.Fatalf("clamped nodes = %d, want 36", nw2.NumNodes())
	}
	// Node cells must be unique.
	seen := map[int]bool{}
	for _, c := range nw.NodeCells {
		if seen[c] {
			t.Fatalf("duplicate node cell %d", c)
		}
		seen[c] = true
	}
}

func TestTotalCapacitancePreservedByReduction(t *testing.T) {
	a := buildPlane(t, 20e-3, 0.5e-3, 4.5, 8,
		[]geom.Point{{X: 0, Y: 0}}, []string{"P1"})
	full, err := a.TotalCapacitance()
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{0, 5, 20} {
		nw, err := Extract(a, Options{ExtraNodes: extra})
		if err != nil {
			t.Fatal(err)
		}
		got := nw.TotalCapacitance()
		if e := math.Abs(got-full) / full; e > 1e-6 {
			t.Fatalf("extra=%d: total C %g vs full %g (err %g)", extra, got, full, e)
		}
	}
}

func TestBranchProperties(t *testing.T) {
	a := buildPlane(t, 15e-3, 0.4e-3, 4.2, 6,
		[]geom.Point{{X: 0, Y: 0}, {X: 15e-3, Y: 0}, {X: 0, Y: 15e-3}},
		[]string{"A", "B", "C"})
	nw, err := Extract(a, Options{ExtraNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	brs := nw.Branches(0)
	if len(brs) == 0 {
		t.Fatal("no branches extracted")
	}
	refCaps := 0
	for _, b := range brs {
		if b.N == -1 {
			refCaps++
			if b.L != 0 || b.R != 0 {
				t.Fatalf("reference branch must be purely capacitive: %+v", b)
			}
			if b.C <= 0 {
				t.Fatalf("reference capacitance must be positive: %+v", b)
			}
			continue
		}
		if b.L < 0 || b.C < 0 || b.R < 0 {
			t.Fatalf("negative element in branch %+v", b)
		}
		if b.M >= b.N {
			t.Fatalf("branch ordering violated: %+v", b)
		}
	}
	if refCaps != nw.NumNodes() {
		t.Fatalf("every node needs a reference capacitance: %d of %d", refCaps, nw.NumNodes())
	}
}

func TestLossyBranchesHaveResistance(t *testing.T) {
	m, err := mesh.Grid(geom.RectShape(0, 0, 10e-3, 10e-3), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPort("P1", geom.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPort("P2", geom.Point{X: 10e-3, Y: 10e-3}); err != nil {
		t.Fatal(err)
	}
	k, _ := greens.NewKernel(greens.OverGround, 0.3e-3, 4.5, 1)
	opts := bem.DefaultOptions()
	opts.SheetResistance = 6e-3 // the paper's tungsten planes
	opts.ReturnSheetResistance = 6e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Extract(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundR := false
	for _, b := range nw.Branches(0) {
		if b.L > 0 && b.R > 0 {
			foundR = true
		}
	}
	if !foundR {
		t.Fatal("lossy plane must extract series resistance")
	}
	// DC port-to-port resistance must be positive and plausible: the sheet
	// resistance is 12 mΩ/sq total, a 5×5 plane diagonal is a few squares.
	z, err := nw.Zin(0, 2*math.Pi*1) // 1 Hz ≈ DC
	if err != nil {
		t.Fatal(err)
	}
	_ = z // 1-port Zin at DC is capacitive/open; resistance checked via branches above
}

func TestYMatrixSymmetry(t *testing.T) {
	a := buildPlane(t, 12e-3, 0.3e-3, 4.5, 5,
		[]geom.Point{{X: 0, Y: 0}, {X: 12e-3, Y: 12e-3}}, []string{"P1", "P2"})
	nw, err := Extract(a, Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	y := nw.Y(2 * math.Pi * 1e9)
	for r := 0; r < y.Rows; r++ {
		for c := r + 1; c < y.Cols; c++ {
			if cmplx.Abs(y.At(r, c)-y.At(c, r)) > 1e-12*cmplx.Abs(y.At(r, r)) {
				t.Fatalf("Y not symmetric at (%d,%d)", r, c)
			}
		}
	}
}

func TestPortZReciprocity(t *testing.T) {
	a := buildPlane(t, 12e-3, 0.3e-3, 4.5, 6,
		[]geom.Point{{X: 0, Y: 0}, {X: 12e-3, Y: 0}, {X: 6e-3, Y: 12e-3}},
		[]string{"P1", "P2", "P3"})
	nw, err := Extract(a, Options{ExtraNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	z, err := nw.PortZ(2 * math.Pi * 2e9)
	if err != nil {
		t.Fatal(err)
	}
	if z.Rows != 3 || z.Cols != 3 {
		t.Fatalf("PortZ shape %dx%d", z.Rows, z.Cols)
	}
	for r := 0; r < 3; r++ {
		for c := r + 1; c < 3; c++ {
			if cmplx.Abs(z.At(r, c)-z.At(c, r)) > 1e-9*cmplx.Abs(z.At(r, r)) {
				t.Fatalf("Z not reciprocal at (%d,%d): %v vs %v", r, c, z.At(r, c), z.At(c, r))
			}
		}
	}
}

func TestLowFrequencyZinIsCapacitive(t *testing.T) {
	a := buildPlane(t, 20e-3, 0.5e-3, 4.5, 8,
		[]geom.Point{{X: 10e-3, Y: 10e-3}}, []string{"P1"})
	nw, err := Extract(a, Options{ExtraNodes: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctot := nw.TotalCapacitance()
	f := 1e6 // 1 MHz: plane is electrically tiny
	z, err := nw.Zin(0, 2*math.Pi*f)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2 * math.Pi * f * ctot)
	if e := math.Abs(cmplx.Abs(z)-want) / want; e > 0.01 {
		t.Fatalf("low-frequency Zin %g, want 1/ωC = %g (err %.3f)", cmplx.Abs(z), want, e)
	}
	if imag(z) >= 0 {
		t.Fatal("low-frequency plane impedance must be capacitive")
	}
}

// The headline physics test: the first resonance of a square plane pair must
// match the cavity-mode formula f10 = c0/(2·a·√εr).
func TestCavityResonanceSquarePlane(t *testing.T) {
	side := 20e-3
	h := 0.5e-3
	epsR := 4.5
	a := buildPlane(t, side, h, epsR, 12,
		[]geom.Point{{X: 0, Y: 0}}, []string{"P1"})
	nw, err := Extract(a, Options{ExtraNodes: 1 << 20}) // keep every cell
	if err != nil {
		t.Fatal(err)
	}
	fWant := greens.C0 / (2 * side * math.Sqrt(epsR)) // ≈ 3.54 GHz
	freqs := make([]float64, 0, 90)
	mags := make([]float64, 0, 90)
	for f := 1.0e9; f <= 6.0e9; f += 0.06e9 {
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		freqs = append(freqs, f)
		mags = append(mags, cmplx.Abs(z))
	}
	peaks := FindPeaks(mags)
	if len(peaks) == 0 {
		t.Fatal("no resonance peak found")
	}
	f0 := RefinePeak(freqs, mags, peaks[0])
	if e := math.Abs(f0-fWant) / fWant; e > 0.12 {
		t.Fatalf("first cavity mode: got %.3g GHz want %.3g GHz (err %.3f)",
			f0/1e9, fWant/1e9, e)
	}
}

// A reduced node set must agree with the full network at low frequency and
// still show the first resonance nearby.
func TestNodeSubsamplingConsistency(t *testing.T) {
	side := 20e-3
	a := buildPlane(t, side, 0.5e-3, 4.5, 10,
		[]geom.Point{{X: 0, Y: 0}}, []string{"P1"})
	full, err := Extract(a, Options{ExtraNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Extract(a, Options{ExtraNodes: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e7, 1e8, 5e8} {
		zf, err := full.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		zs, err := sub.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		if e := cmplx.Abs(zf-zs) / cmplx.Abs(zf); e > 0.05 {
			t.Fatalf("subsampled network diverges at %g Hz: %v vs %v (err %.3f)", f, zs, zf, e)
		}
	}
}

func TestSkinCrossover(t *testing.T) {
	// 35 µm copper (1 oz): f_c = ρ/(πμ0t²) ≈ 3.55 MHz.
	fc := SkinCrossover(1.72e-8, 35e-6)
	if fc < 3e6 || fc > 4.2e6 {
		t.Fatalf("copper crossover = %g", fc)
	}
	if SkinCrossover(-1, 1) != 0 || SkinCrossover(1, 0) != 0 {
		t.Fatal("invalid inputs must return 0")
	}
}

func TestSkinEffectDampsResonance(t *testing.T) {
	m, err := mesh.Grid(geom.RectShape(0, 0, 20e-3, 20e-3), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPort("P", geom.Point{}); err != nil {
		t.Fatal(err)
	}
	k, _ := greens.NewKernel(greens.OverGround, 0.5e-3, 4.5, 1)
	opts := bem.DefaultOptions()
	opts.SheetResistance = 0.6e-3
	opts.ReturnSheetResistance = 0.6e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Extract(a, Options{ExtraNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the first resonance without skin effect.
	var fs, mags []float64
	for f := 2e9; f <= 5e9; f += 0.02e9 {
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
		mags = append(mags, cmplx.Abs(z))
	}
	peaks := FindPeaks(mags)
	if len(peaks) == 0 {
		t.Fatal("no resonance")
	}
	fPeak := fs[peaks[0]]
	zNoSkin, err := nw.Zin(0, 2*math.Pi*fPeak)
	if err != nil {
		t.Fatal(err)
	}
	// Enable the skin correction (crossover well below the resonance).
	nw.SkinCrossoverHz = 4e6
	zSkin, err := nw.Zin(0, 2*math.Pi*fPeak)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(zSkin) >= cmplx.Abs(zNoSkin) {
		t.Fatalf("skin loss must damp the resonance: %g vs %g",
			cmplx.Abs(zSkin), cmplx.Abs(zNoSkin))
	}
	// Below the crossover nothing changes.
	nw.SkinCrossoverHz = 0
	zLow0, err := nw.Zin(0, 2*math.Pi*1e6)
	if err != nil {
		t.Fatal(err)
	}
	nw.SkinCrossoverHz = 4e6
	zLow1, err := nw.Zin(0, 2*math.Pi*1e6)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(zLow0-zLow1) > 1e-12*cmplx.Abs(zLow0) {
		t.Fatal("skin correction must be inactive below the crossover")
	}
}

func TestDielectricLossDampsResonance(t *testing.T) {
	a := buildPlane(t, 20e-3, 0.5e-3, 4.5, 10,
		[]geom.Point{{X: 0, Y: 0}}, []string{"P"})
	nw, err := Extract(a, Options{ExtraNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var fs, mags []float64
	for f := 2e9; f <= 5e9; f += 0.02e9 {
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
		mags = append(mags, cmplx.Abs(z))
	}
	peaks := FindPeaks(mags)
	if len(peaks) == 0 {
		t.Fatal("no resonance")
	}
	fPeak := fs[peaks[0]]
	z0, err := nw.Zin(0, 2*math.Pi*fPeak)
	if err != nil {
		t.Fatal(err)
	}
	nw.LossTan = 0.02 // lossy FR4
	z1, err := nw.Zin(0, 2*math.Pi*fPeak)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(z1) >= cmplx.Abs(z0) {
		t.Fatalf("tanδ must damp the resonance: %g vs %g", cmplx.Abs(z1), cmplx.Abs(z0))
	}
	// The low-frequency capacitive magnitude is essentially unchanged
	// (loss conductance is ω·tanδ·C ≪ ωC).
	nw.LossTan = 0
	a0, _ := nw.Zin(0, 2*math.Pi*1e7)
	nw.LossTan = 0.02
	a1, _ := nw.Zin(0, 2*math.Pi*1e7)
	// |Z| changes only by 1/√(1+tanδ²) ≈ 2·10⁻⁴; the phase rotates by
	// ≈ tanδ, so compare magnitudes.
	if e := math.Abs(cmplx.Abs(a0)-cmplx.Abs(a1)) / cmplx.Abs(a0); e > 0.001 {
		t.Fatalf("low-frequency magnitude shifted by %g", e)
	}
}

func TestNetlistOutput(t *testing.T) {
	a := buildPlane(t, 10e-3, 0.3e-3, 4.5, 4,
		[]geom.Point{{X: 0, Y: 0}, {X: 10e-3, Y: 10e-3}}, []string{"VCC1", "VCC2"})
	nw, err := Extract(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl := nw.Netlist("test plane")
	for _, want := range []string{"* test plane", "port VCC1", "port VCC2", "C1 ", ".end"} {
		if !strings.Contains(nl, want) {
			t.Fatalf("netlist missing %q:\n%s", want, nl)
		}
	}
	if !strings.Contains(nl, "L") {
		t.Fatal("netlist should contain inductors")
	}
}

func TestResonantFrequenciesMatchZinPeaks(t *testing.T) {
	// The eigenvalue route and the impedance-scan route must agree on the
	// first cavity mode.
	side := 20e-3
	a := buildPlane(t, side, 0.5e-3, 4.5, 10,
		[]geom.Point{{X: 0, Y: 0}}, []string{"P"})
	nw, err := Extract(a, Options{ExtraNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	modes, err := nw.ResonantFrequencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) == 0 {
		t.Fatal("no modes found")
	}
	for i := 1; i < len(modes); i++ {
		if modes[i] < modes[i-1] {
			t.Fatal("modes must ascend")
		}
	}
	// Scan Zin for the first peak.
	var fs, mags []float64
	for f := 1e9; f <= 5e9; f += 0.02e9 {
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
		mags = append(mags, cmplx.Abs(z))
	}
	peaks := FindPeaks(mags)
	if len(peaks) == 0 {
		t.Fatal("no scan peak")
	}
	fScan := RefinePeak(fs, mags, peaks[0])
	// The lowest eigenmode above the scan floor must match the scanned peak.
	var fEig float64
	for _, m := range modes {
		if m > 1e9 {
			fEig = m
			break
		}
	}
	if e := math.Abs(fEig-fScan) / fScan; e > 0.02 {
		t.Fatalf("eigen %g vs scan %g (err %.3f)", fEig, fScan, e)
	}
	// The degenerate (1,0)/(0,1) pair of a square plane must appear twice.
	count := 0
	for _, m := range modes {
		if math.Abs(m-fEig)/fEig < 0.02 {
			count++
		}
	}
	if count < 2 {
		t.Fatalf("square-plane degeneracy missing: %v", modes[:min(6, len(modes))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestAttachRealisationMatchesMatrixForm(t *testing.T) {
	// Realising the equivalent circuit as R/L/C elements and solving it
	// with the MNA engine must reproduce the matrix-form impedance (up to
	// the dropped sign-indefinite couplings, which are small below the
	// first resonance).
	m, err := mesh.Grid(geom.RectShape(0, 0, 20e-3, 20e-3), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPort("P1", geom.Point{X: 1e-3, Y: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddPort("P2", geom.Point{X: 19e-3, Y: 19e-3}); err != nil {
		t.Fatal(err)
	}
	k, _ := greens.NewKernel(greens.OverGround, 0.5e-3, 4.5, 1)
	opts := bem.DefaultOptions()
	opts.SheetResistance = 0.6e-3
	opts.ReturnSheetResistance = 0.6e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Extract(a, Options{ExtraNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New()
	ports, err := nw.Attach(c, "pl")
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 {
		t.Fatalf("ports = %d", len(ports))
	}
	// Drive port 1 with a unit AC current; V(port1) is Zin with port 2 open.
	if _, err := c.AddISource("I1", circuit.Ground, ports[0], circuit.ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e7, 1e8, 5e8} {
		res, err := c.AC(2 * math.Pi * f)
		if err != nil {
			t.Fatal(err)
		}
		zCkt := res.V(ports[0])
		zMat, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			t.Fatal(err)
		}
		if e := cmplx.Abs(zCkt-zMat) / cmplx.Abs(zMat); e > 0.02 {
			t.Fatalf("realisation diverges at %g Hz: %v vs %v (err %.3f)", f, zCkt, zMat, e)
		}
	}
	// AttachTol with a moderate tolerance prunes elements but keeps the
	// low-frequency behaviour.
	c2 := circuit.New()
	ports2, err := nw.AttachTol(c2, "pl", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddISource("I1", circuit.Ground, ports2[0], circuit.ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := c2.AC(2 * math.Pi * 1e7)
	if err != nil {
		t.Fatal(err)
	}
	zMat, _ := nw.Zin(0, 2*math.Pi*1e7)
	if e := cmplx.Abs(res.V(ports2[0])-zMat) / cmplx.Abs(zMat); e > 0.1 {
		t.Fatalf("pruned realisation diverges: err %.3f", e)
	}
}

func TestFindPeaks(t *testing.T) {
	mag := []float64{1, 3, 2, 5, 4, 4, 6, 1}
	peaks := FindPeaks(mag)
	if len(peaks) != 3 || peaks[0] != 1 || peaks[1] != 3 || peaks[2] != 6 {
		t.Fatalf("peaks = %v", peaks)
	}
	if p := FindPeaks([]float64{1, 2}); p != nil {
		t.Fatalf("short input should have no peaks: %v", p)
	}
}

func TestRefinePeak(t *testing.T) {
	// Samples of a parabola peaking at x = 2.3.
	xs := []float64{1, 2, 3}
	ys := make([]float64, 3)
	for i, x := range xs {
		ys[i] = 10 - (x-2.3)*(x-2.3)
	}
	got := RefinePeak(xs, ys, 1)
	if math.Abs(got-2.3) > 1e-12 {
		t.Fatalf("RefinePeak = %g", got)
	}
	// Edge index falls back to the sample.
	if RefinePeak(xs, ys, 0) != 1 {
		t.Fatal("edge fallback failed")
	}
}
