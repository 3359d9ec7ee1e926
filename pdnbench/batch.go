package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// batchOut is whatever one batch produced, kept for the untimed checks.
type batchOut any

// batcher is a batch workload: a fixed seeded set of operations, run again
// and again through the measured phase.
type batcher interface {
	// run executes the batch; rec == nil runs it untraced, otherwise each
	// layer call is timed into rec and lay.
	run(ctx context.Context, rec *recorder, lay *layerSample) batchOut
	// check verifies the outputs (untimed).
	check(batchOut) tally
	// digest hashes the outputs' bits for the traced/untraced comparison.
	digest(batchOut) uint64
}

// batchRunner measures a batcher.
type batchRunner struct{ b batcher }

func (batchRunner) close() {}

func setupPlaneLarge(ctx context.Context, cfg runConfig) (runner, error) {
	b := &planeBatch{boards: genPlaneLarge(cfg.Seed)}
	// A 32×32 board forced onto the operator path exercises the same FFT,
	// CG and kernel-table code at a fraction of the cost.
	if err := planeWarmup(ctx, 32, "toeplitz"); err != nil {
		return nil, err
	}
	return batchRunner{b}, nil
}

func setupPlaneDense(ctx context.Context, cfg runConfig) (runner, error) {
	b := &planeBatch{boards: genPlaneDense(cfg.Seed), checkCap: true}
	if err := planeWarmup(ctx, 14, ""); err != nil {
		return nil, err
	}
	return batchRunner{b}, nil
}

func setupSSN(ctx context.Context, cfg runConfig) (runner, error) {
	in := genSSN(cfg.Seed)
	if err := ssnWarmup(ctx, in); err != nil {
		return nil, err
	}
	return batchRunner{&ssnBatch{in: in}}, nil
}

// measure runs batches until the next one would overrun cfg.Seconds (at
// least one). Untraced, each batch's wall and CPU time is a sample. Traced,
// batches come in pairs — one untraced, one traced, alternating which goes
// first — so the traced run can report its own overhead and prove the two
// modes produce the same bits.
func (r batchRunner) measure(ctx context.Context, cfg runConfig, res *result) error {
	start := time.Now()
	var walls, cpus, overhead []float64
	var layers []map[string]float64
	for {
		t0 := time.Now()
		if !cfg.Trace {
			wall, cpu, out := r.timed(ctx, nil, nil)
			walls, cpus = append(walls, wall), append(cpus, cpu)
			res.merge(r.b.check(out))
			fmt.Fprintf(os.Stderr, "pdnbench: batch %d: %.4f s wall, %.4f s CPU\n", len(walls), wall, cpu)
		} else {
			lay := newLayerSample()
			var uw, tw float64
			var uOut, tOut batchOut
			untracedFirst := len(layers)%2 == 0
			if untracedFirst {
				uw, _, uOut = r.timed(ctx, nil, nil)
			}
			tw, _, tOut = r.timed(ctx, res.rec, lay)
			if !untracedFirst {
				uw, _, uOut = r.timed(ctx, nil, nil)
			}
			tw -= lay.excluded.Seconds()
			overhead = append(overhead, tw/uw-1)
			layers = append(layers, lay.v)
			res.merge(r.b.check(uOut))
			res.merge(r.b.check(tOut))
			var eq error
			if du, dt := r.b.digest(uOut), r.b.digest(tOut); du != dt {
				eq = fmt.Errorf("output digests differ: untraced %016x, traced %016x", du, dt)
			}
			res.record("traced/untraced equivalence", eq)
		}
		step := time.Since(t0).Seconds()
		if time.Since(start).Seconds()+step > cfg.Seconds {
			break
		}
	}
	if cfg.Trace {
		for _, d := range perLayer {
			var v []float64
			for _, l := range layers {
				v = append(v, l[d.Name])
			}
			res.metrics[d.Name] = median(v)
		}
		res.metrics["trace.overhead_frac"] = median(overhead)
		return nil
	}
	res.metrics["wall_s"] = median(walls)
	res.metrics["cpu_s"] = median(cpus)
	return nil
}

// timed runs one batch and returns its wall and process CPU seconds. Every
// batch (and set-up, and serve burst) starts with a GC that also returns the
// freed memory to the operating system, so one batch's garbage neither slows
// the next nor decides whether the next one reuses resident pages or faults
// in new ones, and so when the process reaches its peak RSS.
func (r batchRunner) timed(ctx context.Context, rec *recorder, lay *layerSample) (wall, cpu float64, out batchOut) {
	debug.FreeOSMemory()
	c0, t0 := cpuSeconds(), time.Now()
	out = r.b.run(ctx, rec, lay)
	return time.Since(t0).Seconds(), cpuSeconds() - c0, out
}
