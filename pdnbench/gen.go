package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"pdnsim/internal/core"
	"pdnsim/internal/geom"
	"pdnsim/internal/serve"
	"pdnsim/internal/sparam"
	"pdnsim/internal/ssn"
)

// Workload sizes. A seed moves geometry, stackup and placements; it never
// moves these, so two seeds cost the same up to what the physics does with
// the inputs.
const (
	largeCells    = 48 // plane-large: 48×48 = 2304 cells, operator path
	largePorts    = 3
	largeExtra    = 8
	largePoints   = 16
	denseCells    = 22 // plane-dense: 22×22 = 484 cells, dense path
	densePorts    = 3
	denseExtra    = 127 // 130 kept nodes
	densePoints   = 200
	ssnScenarios  = 2 // one 2-chip and one 3-chip scenario per batch
	ssnDt         = 25e-12
	ssnTstop      = 5e-9
	ssnSteps      = 200 // ssnTstop / ssnDt
	fig8FDTDCells = 120 // Fig. 8 leg FDTD grid (120×120)
	serveCellsX   = 10
	serveCellsY   = 8
	servePool     = 6  // boards that repeat across jobs
	servePoints   = 24 // three 8-point shards
	serveRateLo   = 15.0
	serveRateHi   = 30.0
)

// newRNG returns the generator of one workload's inputs. The stream
// constant separates workloads, so plane-large and plane-dense with the same
// seed do not draw the same numbers.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// planeBoard is one board of a plane workload with its sweep grid.
type planeBoard struct {
	Spec  core.BoardSpec
	Freqs []float64
}

// probeIndex is the sweep point whose S matrix the traced/untraced
// equivalence check compares bit for bit.
func (b planeBoard) probeIndex() int { return len(b.Freqs) / 2 }

// boardRange bounds what a seed may choose for a rectangular board: width
// (mm), height over width, and plane separation (mm). The operator path's
// CG work follows the cell shape and the separation-to-cell ratio, so
// plane-large draws from narrow ranges to keep its cost steady across
// seeds.
type boardRange struct {
	W, Aspect, Sep [2]float64
}

var (
	largeRange = boardRange{W: [2]float64{60, 72}, Aspect: [2]float64{0.85, 1}, Sep: [2]float64{0.3, 0.36}}
	smallRange = boardRange{W: [2]float64{40, 70}, Aspect: [2]float64{0.6, 1}, Sep: [2]float64{0.25, 0.45}}
)

// genRectBoard draws a rectangular board on an nx×ny grid with ports in
// distinct cells, away from the outline.
func genRectBoard(r *rand.Rand, name string, nx, ny, ports, extra int, br boardRange) core.BoardSpec {
	w := uniform(r, br.W[0], br.W[1])
	h := w * uniform(r, br.Aspect[0], br.Aspect[1])
	spec := core.BoardSpec{
		Name:       name,
		Shape:      core.ShapeSpec{Type: "rect", W: w, H: h},
		PlaneSepMM: uniform(r, br.Sep[0], br.Sep[1]),
		EpsR:       uniform(r, 3.8, 4.8),
		SheetRes:   uniform(r, 0.5e-3, 0.7e-3),
		MeshNx:     nx,
		MeshNy:     ny,
		ExtraNodes: extra,
	}
	used := map[[2]int]bool{}
	for len(spec.Ports) < ports {
		c := [2]int{1 + r.IntN(nx-2), 1 + r.IntN(ny-2)}
		if used[c] {
			continue
		}
		used[c] = true
		// Cell centre plus a jitter that stays inside the cell.
		x := (float64(c[0]) + uniform(r, 0.3, 0.7)) * w / float64(nx)
		y := (float64(c[1]) + uniform(r, 0.3, 0.7)) * h / float64(ny)
		spec.Ports = append(spec.Ports, core.PortSpec{Name: fmt.Sprintf("P%d", len(spec.Ports)+1), X: x, Y: y})
	}
	return spec
}

// genPlaneLarge is plane-large's batch: one 48×48-cell board on the
// operator path, 3 ports plus 8 interior nodes, and a 16-point sweep.
func genPlaneLarge(seed int64) []planeBoard {
	r := newRNG(seed, 1)
	spec := genRectBoard(r, "large", largeCells, largeCells, largePorts, largeExtra, largeRange)
	return []planeBoard{{Spec: spec, Freqs: sparam.LinSpace(10e6, 1e9, largePoints)}}
}

// genPlaneDense is plane-dense's batch: one 22×22-cell board (below the
// operator-path gate) keeping 130 nodes, with a 200-point sweep.
func genPlaneDense(seed int64) []planeBoard {
	r := newRNG(seed, 2)
	spec := genRectBoard(r, "dense", denseCells, denseCells, densePorts, denseExtra, smallRange)
	return []planeBoard{{Spec: spec, Freqs: sparam.LinSpace(10e6, 3e9, densePoints)}}
}

// ssnScenario is one SSN co-simulation input for ssn.Build.
type ssnScenario struct {
	Name   string
	Board  ssn.Board
	VRM    ssn.VRM
	Chips  []ssn.Chip
	Decaps []ssn.Decap
}

// fig8Case is the Fig. 8-style leg: the HP test plane driven at port 1 by a
// trapezoidal pulse, observed at port 2, as equivalent circuit and as FDTD.
type fig8Case struct {
	Spec  core.BoardSpec
	Pulse [3]float64 // amplitude (V), rise=fall (s), width (s)
}

// ssnInputs is one ssn-cosim batch.
type ssnInputs struct {
	Scenarios []ssnScenario
	Fig8      fig8Case
}

// genSSN draws the ssn-cosim batch: a 2-chip and a 3-chip scenario, each
// with one transistor-level CMOS chip (Newton every step) and ramp-driver
// chips (linear MNA), plus two decaps; and the Fig. 8 leg.
func genSSN(seed int64) ssnInputs {
	r := newRNG(seed, 3)
	var in ssnInputs
	for s := 0; s < ssnScenarios; s++ {
		w := uniform(r, 90, 110) * 1e-3
		h := w * uniform(r, 0.65, 0.8)
		sc := ssnScenario{
			Name: fmt.Sprintf("ssn%d", s),
			Board: ssn.Board{
				Shape:    geom.RectShape(0, 0, w, h),
				PlaneSep: uniform(r, 0.4, 0.6) * 1e-3,
				EpsR:     uniform(r, 4.2, 4.8),
				SheetRes: 0.6e-3,
				MeshNx:   12, MeshNy: 9,
				ExtraNodes: 6,
			},
			VRM: ssn.VRM{At: geom.Point{X: 0.08 * w, Y: 0.1 * h}, V: 3.3, R: 3e-3, L: uniform(r, 10e-9, 20e-9)},
		}
		// Chip sites sit in distinct quadrant-like regions so no two share a
		// mesh cell with each other or with the VRM.
		sites := [][2]float64{{0.75, 0.75}, {0.35, 0.7}, {0.6, 0.25}}
		nChips := 2 + s
		for c := 0; c < nChips; c++ {
			// Driver and pin counts set the MNA size and the Newton work,
			// so they are the same on every seed.
			kind, switching, pins := ssn.RampDriver, 6, 3
			if c == 0 {
				kind, switching, pins = ssn.CMOSDriver, 2, 2
			}
			sc.Chips = append(sc.Chips, ssn.Chip{
				Name:      fmt.Sprintf("U%d", c+1),
				At:        geom.Point{X: (sites[c][0] + uniform(r, -0.05, 0.05)) * w, Y: (sites[c][1] + uniform(r, -0.05, 0.05)) * h},
				Drivers:   16,
				Switching: switching,
				Vdd:       3.3,
				VddPins:   pins,
				Kind:      kind,
				LoadC:     uniform(r, 10e-12, 25e-12),
				Delay:     uniform(r, 1.0e-9, 1.4e-9),
				Width:     2e-9,
			})
		}
		decapSites := [][2]float64{{0.55, 0.5}, {0.2, 0.4}}
		for d := 0; d < 2; d++ {
			sc.Decaps = append(sc.Decaps, ssn.Decap{
				Name: fmt.Sprintf("C%d", d+1),
				At:   geom.Point{X: (decapSites[d][0] + uniform(r, -0.05, 0.05)) * w, Y: (decapSites[d][1] + uniform(r, -0.05, 0.05)) * h},
				C:    uniform(r, 47e-9, 150e-9), ESR: uniform(r, 10e-3, 20e-3), ESL: uniform(r, 0.5e-9, 1e-9),
			})
		}
		in.Scenarios = append(in.Scenarios, sc)
	}
	in.Fig8 = fig8Case{Spec: hpPlaneSpec(), Pulse: [3]float64{uniform(r, 4, 6), 0.2e-9, 1e-9}}
	return in
}

// hpPlaneSpec is the paper's HP test plane (tungsten on 280 µm alumina,
// 20×20 mm, five probe pads) with its 42-node equivalent circuit, as the
// repository's Fig. 8 experiment builds it.
func hpPlaneSpec() core.BoardSpec {
	return core.BoardSpec{
		Name:       "hp-plane",
		Shape:      core.ShapeSpec{Type: "rect", W: 20, H: 20},
		PlaneSepMM: 0.28,
		EpsR:       9.6,
		SheetRes:   6e-3,
		MeshNx:     16,
		MeshNy:     16,
		ExtraNodes: 37,
		NImages:    1,
		Ports: []core.PortSpec{
			{Name: "p1", X: 6, Y: 14}, {Name: "p2", X: 14, Y: 14},
			{Name: "p3", X: 6, Y: 6}, {Name: "p4", X: 10, Y: 6}, {Name: "p5", X: 14, Y: 6},
		},
	}
}

// serveJob is one open-loop arrival: the board to submit and when it is due,
// as an offset from the start of its phase.
type serveJob struct {
	Board core.BoardSpec
	Raw   []byte // the board's JSON, as a client would send it
	DueS  float64
}

// phaseKind says how a phase's jobs are sent.
type phaseKind int

const (
	open  phaseKind = iota // Poisson arrivals at Rate, regardless of replies
	rung                   // a ladder rung: unit-rate arrivals, stretched at run time
	burst                  // a closed loop keeping a fixed number of jobs outstanding
)

// phaseSpec sizes one phase.
type phaseSpec struct {
	Name string
	Kind phaseKind
	Rate float64 // mean arrivals per second (open, rung)
	N    int     // jobs
}

// servePhase is one generated phase.
type servePhase struct {
	phaseSpec
	Jobs []serveJob
}

// serveInputs is serve-mixed's traffic: the pool the warm-up extracts, and
// the phases that follow.
type serveInputs struct {
	Pool   []serveJob
	Phases []servePhase
}

// serveSweep is the sweep every serve-mixed job asks for: servePoints points,
// three shards at the daemon's default shard size.
func serveSweep() *serve.SweepSpec {
	return &serve.SweepSpec{FMin: 10e6, FMax: 1e9, NF: servePoints}
}

// genServe draws serve-mixed's traffic. Each phase holds a fixed number of
// jobs — with exponential gaps at its rate, unless it is a burst — so the
// offered load is the same on every seed; half the jobs repeat a pooled
// board (a cache read once warm), half are fresh.
func genServe(seed int64, phases []phaseSpec) (serveInputs, error) {
	r := newRNG(seed, 4)
	var in serveInputs
	job := func(spec core.BoardSpec, due float64) (serveJob, error) {
		raw, err := json.Marshal(spec)
		if err != nil {
			return serveJob{}, fmt.Errorf("board %s: %w", spec.Name, err)
		}
		return serveJob{Board: spec, Raw: raw, DueS: due}, nil
	}
	for i := 0; i < servePool; i++ {
		j, err := job(genRectBoard(r, fmt.Sprintf("pool%d", i), serveCellsX, serveCellsY, 2, 4, smallRange), 0)
		if err != nil {
			return in, err
		}
		in.Pool = append(in.Pool, j)
	}
	fresh := 0
	for _, ps := range phases {
		p := servePhase{phaseSpec: ps}
		t := 0.0
		for k := 0; k < ps.N; k++ {
			if ps.Kind != burst {
				t += r.ExpFloat64() / ps.Rate
			}
			if r.IntN(2) == 0 {
				j := in.Pool[r.IntN(servePool)]
				j.DueS = t
				p.Jobs = append(p.Jobs, j)
				continue
			}
			fresh++
			j, err := job(genRectBoard(r, fmt.Sprintf("fresh%d", fresh), serveCellsX, serveCellsY, 2, 4, smallRange), t)
			if err != nil {
				return in, err
			}
			p.Jobs = append(p.Jobs, j)
		}
		in.Phases = append(in.Phases, p)
	}
	return in, nil
}
