package sparam

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

// sweepSnapshotKind tags sweep snapshots in the checkpoint envelope.
const sweepSnapshotKind = "sweep"

// PointStatus is the per-frequency outcome of a supervised sweep: how many
// attempts the point needed, the relative frequency perturbation that
// finally succeeded (0 when the nominal frequency worked), and the final
// error when every attempt failed. Failed points are skipped — the sweep
// still carries every successful point.
type PointStatus struct {
	Freq       float64 // Hz
	Attempts   int     // solve attempts consumed (0 = restored from a checkpoint)
	PerturbRel float64 // relative frequency perturbation of the final attempt
	Err        error   // nil when the point is in the sweep
}

// OK reports whether the point made it into the sweep.
func (st PointStatus) OK() bool { return st.Err == nil }

// SweepOptions configure a supervised sweep.
type SweepOptions struct {
	// Z0 is the reference impedance (Ω).
	Z0 float64

	// Policy supervises each frequency point: retryable failures
	// (ErrSingular, ErrIllConditioned) are re-attempted with escalating
	// relative frequency perturbations — a point sitting exactly on a
	// resonance pole moves off it by parts-per-billion — before the point is
	// marked failed and the sweep continues. The zero value applies the
	// package supervise defaults.
	Policy supervise.Policy

	// Checkpoint, when enabled, snapshots completed points to
	// Checkpoint.Path after every Checkpoint.Every-point chunk, and flushes
	// on cancellation. A resumed sweep recomputes only the missing points.
	Checkpoint checkpoint.Policy

	// ResumeFrom, when non-empty, restores completed points from a snapshot
	// written by Checkpoint. The snapshot must come from the same frequency
	// list and Z0 (bitwise), or the restore fails with ErrBadInput.
	ResumeFrom string
}

// sweepPointState is one completed point inside a snapshot: the S matrix
// flattened as interleaved re/im pairs in row-major order.
type sweepPointState struct {
	Done bool      `json:"done"`
	N    int       `json:"n,omitempty"`
	RI   []float64 `json:"ri,omitempty"`
}

// sweepSnapshot is the resumable state of a supervised sweep. Frequencies
// and Z0 identify the run; only successful points are recorded, so failed
// points are re-attempted on resume (they may succeed under different
// conditions, e.g. after a machine-load-induced timeout).
type sweepSnapshot struct {
	Z0     float64           `json:"z0"`
	Freqs  []float64         `json:"freqs"`
	Points []sweepPointState `json:"points"`
}

func packPoint(s *mat.CMatrix) sweepPointState {
	ps := sweepPointState{Done: true, N: s.Rows}
	ps.RI = make([]float64, 0, 2*s.Rows*s.Cols)
	for r := 0; r < s.Rows; r++ {
		for c := 0; c < s.Cols; c++ {
			v := s.At(r, c)
			ps.RI = append(ps.RI, real(v), imag(v))
		}
	}
	return ps
}

func unpackPoint(ps sweepPointState) *mat.CMatrix {
	s := mat.CNew(ps.N, ps.N)
	k := 0
	for r := 0; r < ps.N; r++ {
		for c := 0; c < ps.N; c++ {
			s.Set(r, c, complex(ps.RI[k], ps.RI[k+1]))
			k += 2
		}
	}
	return s
}

// SaveSweepCheckpoint persists the completed points of a (possibly sharded)
// sweep in the standard sweep-snapshot envelope — the same format
// SweepZSupervised writes and ResumeFrom reads, so shard-scheduler snapshots
// and client-supplied resume files are interchangeable. done[i] marks
// results[i] as complete; incomplete entries are not recorded and will be
// recomputed on resume.
func SaveSweepCheckpoint(path string, freqs []float64, z0 float64, done []bool, results []*mat.CMatrix) error {
	if len(done) != len(freqs) || len(results) != len(freqs) {
		return simerr.BadInput("sparam: sweep checkpoint",
			"done/results length %d/%d does not match %d frequencies", len(done), len(results), len(freqs))
	}
	snap := &sweepSnapshot{Z0: z0, Freqs: freqs, Points: make([]sweepPointState, len(freqs))}
	for i := range freqs {
		if done[i] {
			snap.Points[i] = packPoint(results[i])
		}
	}
	return checkpoint.Save(path, sweepSnapshotKind, snap)
}

// LoadSweepCheckpoint restores the completed points of a sweep snapshot
// written by SaveSweepCheckpoint, validating it against the requested
// frequency list and reference impedance bitwise. Returns per-point done
// flags and S matrices of len(freqs). Mismatches are simerr.ErrBadInput-class
// errors.
func LoadSweepCheckpoint(path string, freqs []float64, z0 float64) (done []bool, results []*mat.CMatrix, err error) {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("sparam: resume", format, args...)
	}
	var snap sweepSnapshot
	if err := checkpoint.Load(path, sweepSnapshotKind, &snap); err != nil {
		return nil, nil, err
	}
	if !checkpoint.SameBits(snap.Z0, z0) {
		return nil, nil, bad("snapshot reference impedance %g does not match %g", snap.Z0, z0)
	}
	if len(snap.Freqs) != len(freqs) {
		return nil, nil, bad("snapshot has %d frequencies, sweep has %d", len(snap.Freqs), len(freqs))
	}
	for i := range freqs {
		if !checkpoint.SameBits(snap.Freqs[i], freqs[i]) {
			return nil, nil, bad("snapshot frequency %d is %g Hz, sweep has %g Hz", i, snap.Freqs[i], freqs[i])
		}
	}
	if len(snap.Points) != len(freqs) {
		return nil, nil, bad("snapshot point records are inconsistent with its frequency list")
	}
	done = make([]bool, len(freqs))
	results = make([]*mat.CMatrix, len(freqs))
	for i, ps := range snap.Points {
		if !ps.Done {
			continue
		}
		if ps.N < 1 || len(ps.RI) != 2*ps.N*ps.N {
			return nil, nil, bad("snapshot point %d has a malformed S matrix record", i)
		}
		done[i] = true
		results[i] = unpackPoint(ps)
	}
	return done, results, nil
}

// SweepZSupervised is SweepZCtx with run survivability: every frequency
// point is isolated behind a supervision policy (bounded retries with tiny
// frequency perturbations on retryable numerical failures), a point that
// still fails is skipped instead of aborting the sweep, and completed points
// checkpoint periodically so a killed sweep resumes without recomputing.
//
// Returns the sweep of successful points, one PointStatus per requested
// frequency, and:
//
//   - nil when every point succeeded,
//   - a simerr.ErrPartial-class error (alongside the usable sweep) when some
//     points failed — the per-point statuses say which and why,
//   - the first per-point error when every point failed (no sweep), and
//   - a simerr.ErrCancelled-class error when the sweep was cancelled (a
//     final checkpoint is flushed first when checkpointing is enabled).
func SweepZSupervised(ctx context.Context, freqs []float64, opts SweepOptions, zAt ZFunc) (*Sweep, []PointStatus, error) {
	for i, f := range freqs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, nil, simerr.BadInput("sparam: sweep", "non-finite frequency %g at index %d", f, i)
		}
	}
	if !(opts.Z0 > 0) || math.IsInf(opts.Z0, 0) {
		return nil, nil, simerr.BadInput("sparam: sweep", "reference impedance must be positive and finite, got %g", opts.Z0)
	}
	if len(freqs) == 0 {
		return nil, nil, simerr.BadInput("sparam: sweep", "empty frequency list")
	}
	n := len(freqs)
	results := make([]*mat.CMatrix, n)
	done := make([]bool, n)
	statuses := make([]PointStatus, n)
	for i := range statuses {
		statuses[i] = PointStatus{Freq: freqs[i]}
	}
	if opts.ResumeFrom != "" {
		var err error
		done, results, err = LoadSweepCheckpoint(opts.ResumeFrom, freqs, opts.Z0)
		if err != nil {
			return nil, nil, fmt.Errorf("sparam: sweep resume: %w", err)
		}
	}

	ckpt := opts.Checkpoint
	chunk := n
	if ckpt.Enabled() {
		chunk = ckpt.Stride()
	}
	for lo := 0; lo < n; lo += chunk {
		if err := simerr.CheckCtx(ctx, "sparam: sweep"); err != nil {
			if ckpt.Enabled() {
				if serr := SaveSweepCheckpoint(ckpt.Path, freqs, opts.Z0, done, results); serr != nil {
					return nil, statuses, fmt.Errorf("sparam: sweep cancelled and checkpoint flush failed: %w",
						errors.Join(err, serr))
				}
			}
			return nil, statuses, err
		}
		hi := min(lo+chunk, n)
		mat.ParallelFor(hi-lo, func(k int) {
			i := lo + k
			if done[i] {
				return
			}
			s, st := supervisePoint(ctx, opts, freqs[i], i, zAt)
			statuses[i].Attempts = st.Attempts
			statuses[i].PerturbRel = st.PerturbRel
			statuses[i].Err = st.Err
			if st.Err == nil {
				results[i] = s
				done[i] = true
			}
		})
		for i := lo; i < hi; i++ {
			if statuses[i].Err != nil && errors.Is(statuses[i].Err, simerr.ErrCancelled) {
				if ckpt.Enabled() {
					if serr := SaveSweepCheckpoint(ckpt.Path, freqs, opts.Z0, done, results); serr != nil {
						return nil, statuses, fmt.Errorf("sparam: sweep cancelled and checkpoint flush failed: %w",
							errors.Join(statuses[i].Err, serr))
					}
				}
				return nil, statuses, statuses[i].Err
			}
		}
		if ckpt.Enabled() {
			if err := SaveSweepCheckpoint(ckpt.Path, freqs, opts.Z0, done, results); err != nil {
				return nil, statuses, fmt.Errorf("sparam: sweep checkpoint: %w", err)
			}
		}
	}

	sw := &Sweep{Z0: opts.Z0}
	failed := 0
	var firstErr error
	for i := range freqs {
		if done[i] {
			sw.Points = append(sw.Points, Point{Freq: freqs[i], S: results[i]})
		} else {
			failed++
			if firstErr == nil {
				firstErr = statuses[i].Err
			}
		}
	}
	if failed == n {
		return nil, statuses, fmt.Errorf("sparam: sweep: every point failed: %w", firstErr)
	}
	// Observation mode, as in SweepZCtx — plus the supervision trail: one
	// Warning per skipped point, one Info per point that needed retries.
	_ = sw.Verify()
	for _, st := range statuses {
		switch {
		case st.Err != nil:
			sw.Diag.Warnf("sparam", "skipped point", st.Freq, 0, false,
				"point at %g Hz failed after %d attempts and was skipped: %v", st.Freq, st.Attempts, st.Err)
		case st.Attempts > 1:
			sw.Diag.Infof("sparam", "retried point", st.Freq, 0,
				"point at %g Hz recovered on attempt %d (frequency perturbation %.3g)",
				st.Freq, st.Attempts, st.PerturbRel)
		}
	}
	if failed > 0 {
		return sw, statuses, &simerr.PartialError{Op: "sparam: sweep", Failed: failed, Total: n, Err: firstErr}
	}
	return sw, statuses, nil
}

// supervisePoint evaluates one frequency point under the supervision policy.
// The perturbation is applied as ω·(1+p): retry k moves the evaluation
// frequency by a escalating parts-per-billion-scale nudge, enough to step
// off an exact resonance pole without visibly moving the sample.
func supervisePoint(ctx context.Context, opts SweepOptions, f float64, index int, zAt ZFunc) (*mat.CMatrix, supervise.Status) {
	return supervise.Do(ctx, opts.Policy, index,
		func(ctx context.Context, perturbRel float64) (*mat.CMatrix, error) {
			omega := 2 * math.Pi * f * (1 + perturbRel)
			z, err := zAt(ctx, omega)
			if err != nil {
				return nil, fmt.Errorf("sparam: Z at %g Hz: %w", f, err)
			}
			s, err := FromZ(z, opts.Z0)
			if err != nil {
				return nil, fmt.Errorf("sparam: S at %g Hz: %w", f, err)
			}
			return s, nil
		})
}
