package main

import (
	"context"
	"fmt"
	"time"

	"pdnsim/internal/bem"
	"pdnsim/internal/core"
	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/sparam"
)

const mm = 1e-3

// layerSample accumulates one traced batch's per-layer numbers, keyed by
// the per-layer metric names. excluded is time the traced batch spent on
// measurement-only work (forced GCs for retained heap, the trust-gate
// replay), taken out before the traced batch is compared with an untraced
// one.
type layerSample struct {
	v        map[string]float64
	excluded time.Duration
}

func newLayerSample() *layerSample { return &layerSample{v: map[string]float64{}} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// excl runs measurement-only work and books its time as excluded.
func (l *layerSample) excl(f func()) {
	t := time.Now()
	f()
	l.excluded += time.Since(t)
}

// extractLayered runs core.BoardSpec.ExtractCtx's pipeline one layer at a
// time — mesh.Grid + AddPort, bem.AssembleCtx, extract.ExtractCtx — with
// exactly the options core's buildAssembly passes, timing each call from
// outside. It then replays the reduction's trust gate (checkReduced's
// public calls) on copies of the returned operators to time that gate.
func extractLayered(ctx context.Context, spec *core.BoardSpec, rec *recorder, parent int, lay *layerSample) (*bem.Assembly, *extract.Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	nx, ny := spec.MeshNx, spec.MeshNy
	if nx <= 0 {
		nx = 16
	}
	if ny <= 0 {
		ny = 16
	}
	sp := rec.begin("mesh", spec.Name, parent)
	m, err := mesh.Grid(spec.BuildShape(), nx, ny)
	if err == nil {
		for _, p := range spec.Ports {
			if _, err = m.AddPort(p.Name, geom.Point{X: p.X * mm, Y: p.Y * mm}); err != nil {
				break
			}
		}
	}
	lay.v["mesh.ms"] += ms(rec.end(sp))
	if err != nil {
		return nil, nil, fmt.Errorf("mesh: %w", err)
	}
	lay.v["mesh.cells"] += float64(len(m.Cells))

	var live0 float64
	lay.excl(func() { live0 = liveHeapBytes() })
	alloc0 := heapAllocBytes()
	sp = rec.begin("bem", spec.Name, parent)
	mode := greens.OverGround
	if spec.Kernel == "microstrip" {
		mode = greens.Microstrip
	}
	var asm *bem.Assembly
	k, err := greens.NewKernel(mode, spec.PlaneSepMM*mm, spec.EpsR, spec.NImages)
	if err == nil {
		opts := bem.DefaultOptions()
		if spec.Testing == "galerkin" {
			opts.Testing = bem.Galerkin
		}
		switch spec.Operator {
		case "dense":
			opts.Operator = bem.OpDense
		case "toeplitz":
			opts.Operator = bem.OpToeplitz
		}
		opts.SheetResistance = spec.SheetRes
		opts.ReturnSheetResistance = spec.SheetRes
		asm, err = bem.AssembleCtx(ctx, m, k, opts)
	}
	lay.v["bem.ms"] += ms(rec.end(sp))
	lay.v["bem.alloc_mb"] += (heapAllocBytes() - alloc0) / mib
	if err != nil {
		return nil, nil, fmt.Errorf("bem: %w", err)
	}
	lay.v["bem.kernel_evals"] += float64(asm.KernelEvals)
	lay.excl(func() { lay.v["bem.retained_mb"] += (liveHeapBytes() - live0) / mib })

	alloc0 = heapAllocBytes()
	sp = rec.begin("extract", spec.Name, parent)
	nw, err := extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: spec.ExtraNodes})
	lay.v["extract.ms"] += ms(rec.end(sp))
	lay.v["extract.alloc_mb"] += (heapAllocBytes() - alloc0) / mib
	if err != nil {
		return asm, nil, fmt.Errorf("extract: %w", err)
	}
	lay.v["extract.nodes"] += float64(nw.NumNodes())
	for _, it := range nw.Diag.Items() {
		switch {
		case it.Check == "operator path":
			lay.v["extract.fallbacks"]++
		case it.Repaired:
			lay.v["extract.repairs"]++
		}
	}

	lay.excl(func() {
		sp := rec.begin("diag.gate", spec.Name, parent)
		replayGate(nw)
		lay.v["diag.gate_ms"] += ms(rec.end(sp))
	})
	return asm, nw, nil
}

// replayGate repeats the public calls of the extraction's trust gate on
// copies of the reduced operators: symmetry and PSD of C and Γ, symmetry of
// G, and the condition estimate of C. The verdicts are discarded (the
// output checks judge the network); only the cost is of interest. Γ's PSD
// check is scaled by the reduced Γ itself, since the unreduced scale the
// gate uses is not returned — the eigen-decomposition done is the same.
func replayGate(nw *extract.Network) {
	d := diag.New()
	c, g := nw.C.Clone(), nw.Gamma.Clone()
	_ = diag.CheckSymmetric(d, "replay", "C", c)
	_ = diag.CheckPSD(d, "replay", "C", c)
	_ = diag.CheckSymmetric(d, "replay", "Γ", g)
	_ = diag.CheckPSDScaled(d, "replay", "Γ", g, mat.NormInf(g))
	if nw.G != nil {
		_ = diag.CheckSymmetric(d, "replay", "G", nw.G.Clone())
	}
	if f, err := mat.NewLU(c); err == nil {
		_ = diag.CheckCond(d, "replay", "C κ₁", f.Cond1Est())
	}
}

// sweepOptions is the supervised sweep every plane board runs.
var sweepOptions = sparam.SweepOptions{Z0: 50}

// planeBatch is plane-large's or plane-dense's batch runner.
type planeBatch struct {
	boards []planeBoard
	// checkCap compares the reduced network's total capacitance with the
	// assembly's (plane-dense: the dense P solve it needs is cheap there).
	checkCap bool
}

// boardOut is what one board produced, kept for the untimed checks.
type boardOut struct {
	name string
	nw   *extract.Network
	asm  *bem.Assembly // only when checkCap
	sw   *sparam.Sweep
	err  error
}

type planeOut struct{ boards []boardOut }

func (p *planeBatch) run(ctx context.Context, rec *recorder, lay *layerSample) batchOut {
	out := &planeOut{}
	for _, b := range p.boards {
		out.boards = append(out.boards, p.board(ctx, b, rec, lay))
	}
	if rec != nil && lay.v["sparam.points"] > 0 {
		lay.v["sparam.us_per_point"] = 1000 * lay.v["sparam.ms"] / lay.v["sparam.points"]
	}
	return out
}

// board extracts and sweeps one board: through core's pipeline entry point
// when untraced, layer by layer when traced.
func (p *planeBatch) board(ctx context.Context, b planeBoard, rec *recorder, lay *layerSample) boardOut {
	spec := b.Spec
	o := boardOut{name: spec.Name}
	if rec == nil {
		res, err := spec.ExtractCtx(ctx)
		if err != nil {
			o.err = err
			return o
		}
		o.nw = res.Network
		if p.checkCap {
			o.asm = res.Assembly
		}
		o.sw, _, o.err = sparam.SweepZSupervised(ctx, b.Freqs, sweepOptions, o.nw.PortZCtx)
		return o
	}

	top := rec.begin("board", spec.Name, -1)
	defer rec.end(top)
	asm, nw, err := extractLayered(ctx, &spec, rec, top, lay)
	if err != nil {
		o.err = err
		return o
	}
	o.nw = nw
	if p.checkCap {
		o.asm = asm
	}
	sp := rec.begin("sparam", spec.Name, top)
	sw, st, err := sparam.SweepZSupervised(ctx, b.Freqs, sweepOptions, nw.PortZCtx)
	lay.v["sparam.ms"] += ms(rec.end(sp))
	for _, s := range st {
		if s.Attempts > 1 {
			lay.v["sparam.retried_points"]++
		}
	}
	if sw != nil {
		lay.v["sparam.points"] += float64(len(sw.Points))
	}
	o.sw, o.err = sw, err
	return o
}

func (p *planeBatch) check(o batchOut) tally {
	var t tally
	for i, b := range o.(*planeOut).boards {
		t.record("board "+b.name, func() error {
			if b.err != nil {
				return b.err
			}
			if err := checkNetwork(b.nw); err != nil {
				return err
			}
			if err := checkSweep(b.sw, len(p.boards[i].Freqs)); err != nil {
				return err
			}
			if p.checkCap {
				asmC, err := b.asm.TotalCapacitance()
				if err != nil {
					return fmt.Errorf("assembly capacitance: %w", err)
				}
				return checkCapacitance(b.nw.TotalCapacitance(), asmC)
			}
			return nil
		}())
	}
	return t
}

func (p *planeBatch) digest(o batchOut) uint64 {
	d := newDigest()
	for i, b := range o.(*planeOut).boards {
		if b.nw != nil {
			d.floats(b.nw.TotalCapacitance())
		}
		if k := p.boards[i].probeIndex(); b.sw != nil && k < len(b.sw.Points) {
			d.complex(b.sw.Points[k].S)
		}
	}
	return d.h
}

// planeWarmup extracts and sweeps a small board on the given solve path so
// the first timed batch does not pay for first-use costs.
func planeWarmup(ctx context.Context, cells int, operator string) error {
	spec := core.BoardSpec{
		Name: "warmup", Shape: core.ShapeSpec{Type: "rect", W: 30, H: 24},
		PlaneSepMM: 0.3, EpsR: 4.3, SheetRes: 0.6e-3, Operator: operator,
		MeshNx: cells, MeshNy: cells, ExtraNodes: 8,
		Ports: []core.PortSpec{{Name: "A", X: 5, Y: 5}, {Name: "B", X: 24, Y: 18}},
	}
	res, err := spec.ExtractCtx(ctx)
	if err != nil {
		return fmt.Errorf("warm-up extraction: %w", err)
	}
	if _, _, err := sparam.SweepZSupervised(ctx, sparam.LinSpace(10e6, 1e9, 16), sweepOptions, res.Network.PortZCtx); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	return nil
}
