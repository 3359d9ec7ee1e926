package sparam

import (
	"errors"
	"math"

	"context"

	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// SweepZShardSupervised evaluates one shard — the half-open index range
// [lo, hi) of freqs — under the same per-point supervision as
// SweepZSupervised, but leaves aggregation to the caller: it returns raw
// per-point S matrices instead of an assembled Sweep, records per-point
// failures in the statuses instead of folding them into an ErrPartial, and
// never touches a checkpoint file. This is the unit of work the serve-layer
// shard scheduler dispatches to its pool: the scheduler owns the done/result
// arrays across shards, merges each shard on completion, and decides when
// the whole sweep is finished.
//
// skip, when non-nil, is indexed by *absolute* frequency index and marks
// points that are already complete (restored from a snapshot, or finished by
// an earlier attempt of this shard before its lease expired); they are left
// untouched — results nil, status zero-attempts — so a retried shard
// recomputes only what is actually missing.
//
// Returns results and statuses of length hi−lo (shard-relative index k maps
// to absolute index lo+k). The error is non-nil only for invalid input or
// cancellation; on cancellation the points completed before the cut-off are
// still present in results, so the caller can merge them before requeueing.
func SweepZShardSupervised(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts SweepOptions, zAt ZFunc) ([]*mat.CMatrix, []PointStatus, error) {
	if lo < 0 || hi > len(freqs) || lo >= hi {
		return nil, nil, simerr.BadInput("sparam: sweep shard",
			"shard range [%d, %d) is invalid for %d frequencies", lo, hi, len(freqs))
	}
	if skip != nil && len(skip) != len(freqs) {
		return nil, nil, simerr.BadInput("sparam: sweep shard",
			"skip mask has %d entries for %d frequencies", len(skip), len(freqs))
	}
	for i := lo; i < hi; i++ {
		if math.IsNaN(freqs[i]) || math.IsInf(freqs[i], 0) {
			return nil, nil, simerr.BadInput("sparam: sweep shard", "non-finite frequency %g at index %d", freqs[i], i)
		}
	}
	if !(opts.Z0 > 0) || math.IsInf(opts.Z0, 0) {
		return nil, nil, simerr.BadInput("sparam: sweep shard",
			"reference impedance must be positive and finite, got %g", opts.Z0)
	}
	n := hi - lo
	results := make([]*mat.CMatrix, n)
	statuses := make([]PointStatus, n)
	for k := range statuses {
		statuses[k] = PointStatus{Freq: freqs[lo+k]}
	}
	if err := simerr.CheckCtx(ctx, "sparam: sweep shard"); err != nil {
		return results, statuses, err
	}
	mat.ParallelFor(n, func(k int) {
		i := lo + k
		if skip != nil && skip[i] {
			return
		}
		s, st := supervisePoint(ctx, opts, freqs[i], i, zAt)
		statuses[k].Attempts = st.Attempts
		statuses[k].PerturbRel = st.PerturbRel
		statuses[k].Err = st.Err
		if st.Err == nil {
			results[k] = s
		}
	})
	for k := range statuses {
		if statuses[k].Err != nil && errors.Is(statuses[k].Err, simerr.ErrCancelled) {
			return results, statuses, statuses[k].Err
		}
	}
	return results, statuses, nil
}
