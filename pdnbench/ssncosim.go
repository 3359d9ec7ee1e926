package main

import (
	"context"
	"fmt"
	"math"

	"pdnsim/internal/circuit"
	"pdnsim/internal/core"
	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/fdtd"
	"pdnsim/internal/geom"
	"pdnsim/internal/ssn"
)

// Fig. 8 leg timing: the trapezoidal equivalent-circuit step and the window
// of the repository's Fig. 8 experiment.
const (
	fig8Dt    = 2e-12
	fig8Tstop = 3e-9
)

// ssnBatch is ssn-cosim's batch runner.
type ssnBatch struct{ in ssnInputs }

type scenarioOut struct {
	name  string
	res   *circuit.Result
	nodes int // circuit nodes including ground
	err   error
}

type fig8Out struct {
	equiv, fdtdV []float64 // port-2 waveforms; fdtdV on the FDTD's own axis
	fdtdOnEquiv  []float64 // fdtdV resampled onto the circuit's time axis
	fdtdDiag     *diag.Diagnostics
	err          error
}

type ssnOut struct {
	scenarios []scenarioOut
	fig8      fig8Out
}

func (s *ssnBatch) run(ctx context.Context, rec *recorder, lay *layerSample) batchOut {
	out := &ssnOut{}
	for _, sc := range s.in.Scenarios {
		out.scenarios = append(out.scenarios, runScenario(ctx, sc, rec, lay))
	}
	out.fig8 = runFig8(ctx, s.in.Fig8, rec, lay)
	if rec != nil {
		if steps := lay.v["circuit.steps"]; steps > 0 {
			lay.v["circuit.us_per_step"] = 1000 * lay.v["circuit.tran_ms"] / steps
		}
	}
	return out
}

// tran runs one transient, traced or not, and books its solver statistics.
func tran(ctx context.Context, c *circuit.Circuit, opts circuit.TranOptions, id string, rec *recorder, parent int, lay *layerSample) (*circuit.Result, error) {
	opts.Ctx = ctx
	sp := rec.begin("circuit.tran", id, parent)
	res, err := c.Tran(opts)
	if rec == nil {
		return res, err
	}
	lay.v["circuit.tran_ms"] += ms(rec.end(sp))
	if res != nil {
		lay.v["circuit.steps"] += float64(res.Stats.Steps)
		lay.v["circuit.newton_iters"] += float64(res.Stats.NewtonIterations)
		lay.v["circuit.step_retries"] += float64(res.Stats.StepRetries)
	}
	return res, err
}

func runScenario(ctx context.Context, sc ssnScenario, rec *recorder, lay *layerSample) scenarioOut {
	o := scenarioOut{name: sc.Name}
	top := rec.begin("scenario", sc.Name, -1)
	defer rec.end(top)
	sp := rec.begin("ssn.build", sc.Name, top)
	sys, err := ssn.Build(sc.Board, sc.VRM, sc.Chips, sc.Decaps)
	if rec != nil {
		lay.v["ssn.build_ms"] += ms(rec.end(sp))
	}
	if err != nil {
		o.err = fmt.Errorf("ssn build: %w", err)
		return o
	}
	o.nodes = sys.Circuit.NumNodes()
	o.res, o.err = tran(ctx, sys.Circuit, circuit.TranOptions{Dt: ssnDt, Tstop: ssnTstop, Method: circuit.Trapezoidal},
		sc.Name, rec, top, lay)
	return o
}

// runFig8 is the Fig. 8-style leg: the HP plane's extracted equivalent
// circuit and the FDTD solver on the same plane, both driven at port 1 by
// the same pulse into 50 Ω terminations, observed at port 2.
func runFig8(ctx context.Context, fc fig8Case, rec *recorder, lay *layerSample) fig8Out {
	var o fig8Out
	spec := fc.Spec
	top := rec.begin("fig8", spec.Name, -1)
	defer rec.end(top)
	var nw *extract.Network
	if rec == nil {
		res, err := spec.ExtractCtx(ctx)
		if err != nil {
			o.err = fmt.Errorf("fig8 extraction: %w", err)
			return o
		}
		nw = res.Network
	} else {
		_, n, err := extractLayered(ctx, &spec, rec, top, lay)
		if err != nil {
			o.err = fmt.Errorf("fig8 extraction: %w", err)
			return o
		}
		nw = n
	}
	pulse := circuit.Pulse{V1: 0, V2: fc.Pulse[0], Rise: fc.Pulse[1], Fall: fc.Pulse[1], Width: fc.Pulse[2]}

	c := circuit.New()
	ports, err := nw.Attach(c, "plane")
	if err == nil {
		err = terminate(c, ports, pulse)
	}
	if err != nil {
		o.err = fmt.Errorf("fig8 circuit: %w", err)
		return o
	}
	tr, err := tran(ctx, c, circuit.TranOptions{Dt: fig8Dt, Tstop: fig8Tstop, Method: circuit.Trapezoidal},
		spec.Name, rec, top, lay)
	if err != nil {
		o.err = fmt.Errorf("fig8 transient: %w", err)
		return o
	}
	o.equiv = tr.V(ports[1])

	sp := rec.begin("fdtd", spec.Name, top)
	fres, p2, err := fig8FDTD(ctx, &spec, pulse)
	if rec != nil {
		d := rec.end(sp)
		lay.v["fdtd.ms"] += ms(d)
		if fres != nil {
			steps := float64(len(fres.Time))
			lay.v["fdtd.steps"] += steps
			lay.v["fdtd.mcells_per_s"] = fig8FDTDCells * fig8FDTDCells * steps / d.Seconds() / 1e6
		}
	}
	if err != nil {
		o.err = fmt.Errorf("fig8 FDTD: %w", err)
		return o
	}
	o.fdtdV, o.fdtdDiag = p2, fres.Diag
	o.fdtdOnEquiv = resample(fres.Time, p2, tr.Time)
	return o
}

// terminate drives port 0 through a 50 Ω source and loads the others with
// 50 Ω, as the paper's Fig. 8 measurement does.
func terminate(c *circuit.Circuit, ports []int, pulse circuit.Pulse) error {
	src := c.Node("src")
	if _, err := c.AddVSource("VS", src, circuit.Ground, pulse); err != nil {
		return err
	}
	if _, err := c.AddResistor("RS", src, ports[0], 50); err != nil {
		return err
	}
	for i := 1; i < len(ports); i++ {
		if _, err := c.AddResistor(fmt.Sprintf("RT%d", i), ports[i], circuit.Ground, 50); err != nil {
			return err
		}
	}
	return nil
}

// fig8FDTD runs the FDTD reference on a fig8FDTDCells² grid at 0.9 of the
// Courant limit and returns port 2's voltage.
func fig8FDTD(ctx context.Context, spec *core.BoardSpec, pulse circuit.Pulse) (*fdtd.Result, []float64, error) {
	sim, err := fdtd.New(spec.BuildShape(), fig8FDTDCells, fig8FDTDCells,
		spec.PlaneSepMM*mm, spec.EpsR, 2*spec.SheetRes)
	if err != nil {
		return nil, nil, err
	}
	var p2 *fdtd.Port
	for i, p := range spec.Ports {
		var drive func(float64) float64
		if i == 0 {
			drive = pulse.At
		}
		port, err := sim.AddPort(p.Name, geom.Point{X: p.X * mm, Y: p.Y * mm}, 50, drive)
		if err != nil {
			return nil, nil, err
		}
		if i == 1 {
			p2 = port
		}
	}
	res, err := sim.RunCtx(ctx, 0.9*sim.MaxStableDt(), fig8Tstop)
	if err != nil {
		return res, nil, err
	}
	return res, p2.V, nil
}

// resample linearly interpolates (t, v) onto target, holding the end values
// outside t's span.
func resample(t, v, target []float64) []float64 {
	out := make([]float64, len(target))
	j := 0
	for i, x := range target {
		for j < len(t)-2 && t[j+1] < x {
			j++
		}
		switch {
		case x <= t[0]:
			out[i] = v[0]
		case x >= t[len(t)-1]:
			out[i] = v[len(v)-1]
		default:
			f := (x - t[j]) / (t[j+1] - t[j])
			out[i] = v[j] + f*(v[j+1]-v[j])
		}
	}
	return out
}

// rmsRel is the RMS difference of a and ref normalised by ref's peak.
func rmsRel(a, ref []float64) float64 {
	n := min(len(a), len(ref))
	var ss, peak float64
	for i := 0; i < n; i++ {
		d := a[i] - ref[i]
		ss += d * d
		peak = math.Max(peak, math.Abs(ref[i]))
	}
	if n == 0 || peak == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(ss/float64(n)) / peak
}

func (s *ssnBatch) check(o batchOut) tally {
	out := o.(*ssnOut)
	var t tally
	for _, sc := range out.scenarios {
		t.record("scenario "+sc.name, func() error {
			if sc.err != nil {
				return sc.err
			}
			if sc.res.Stats.Steps != ssnSteps {
				return fmt.Errorf("%d steps, want %d", sc.res.Stats.Steps, ssnSteps)
			}
			for n := 1; n < sc.nodes; n++ {
				if err := checkFinite(sc.name, sc.res.V(n)); err != nil {
					return err
				}
			}
			return nil
		}())
	}
	f := out.fig8
	t.record("fig8", func() error {
		if f.err != nil {
			return f.err
		}
		if err := checkFinite("fig8", f.equiv, f.fdtdV); err != nil {
			return err
		}
		for _, it := range f.fdtdDiag.Items() {
			if it.Check == "energy watchdog" && it.Severity >= diag.Warning {
				return fmt.Errorf("FDTD energy watchdog: %s", it.Message)
			}
		}
		if rms := rmsRel(f.equiv, f.fdtdOnEquiv); !(rms <= fig8RMSBand) {
			return fmt.Errorf("equivalent circuit vs FDTD RMS %.3g outside the Fig. 8 band %.2g", rms, fig8RMSBand)
		}
		return nil
	}())
	return t
}

func (s *ssnBatch) digest(o batchOut) uint64 {
	out := o.(*ssnOut)
	d := newDigest()
	for _, sc := range out.scenarios {
		if sc.res == nil {
			continue
		}
		for n := 1; n < sc.nodes; n++ {
			d.floats(sc.res.V(n)...)
		}
	}
	d.floats(out.fig8.equiv...)
	d.floats(out.fig8.fdtdV...)
	return d.h
}

// ssnWarmup runs a short transient of the first scenario and a coarse FDTD
// run, so the timed batches do not pay for first-use costs.
func ssnWarmup(ctx context.Context, in ssnInputs) error {
	sc := in.Scenarios[0]
	sys, err := ssn.Build(sc.Board, sc.VRM, sc.Chips, sc.Decaps)
	if err != nil {
		return fmt.Errorf("warm-up build: %w", err)
	}
	if _, err := sys.Circuit.Tran(circuit.TranOptions{Dt: ssnDt, Tstop: 1e-9, Method: circuit.Trapezoidal, Ctx: ctx}); err != nil {
		return fmt.Errorf("warm-up transient: %w", err)
	}
	sim, err := fdtd.New(geom.RectShape(0, 0, 20e-3, 20e-3), 40, 40, 0.28e-3, 9.6, 12e-3)
	if err != nil {
		return fmt.Errorf("warm-up FDTD: %w", err)
	}
	if _, err := sim.AddPort("p", geom.Point{X: 6e-3, Y: 14e-3}, 50, circuit.Pulse{V2: 1, Rise: 0.2e-9, Fall: 0.2e-9, Width: 1e-9}.At); err != nil {
		return fmt.Errorf("warm-up FDTD: %w", err)
	}
	if _, err := sim.RunCtx(ctx, 0.9*sim.MaxStableDt(), 1e-9); err != nil {
		return fmt.Errorf("warm-up FDTD: %w", err)
	}
	return nil
}
