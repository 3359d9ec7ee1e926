package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

// DurabilityState is the daemon's durability posture — the state machine
// layered over the write-ahead journal, sweep snapshots and operator cache:
//
//	disabled ──(StateDir + journal opens)──▶ armed
//	armed ──(a storage write fails its bounded retries)──▶ degraded
//	degraded ──(probe: append + compacting rewrite succeed)──▶ armed
//
// In degraded mode jobs keep executing — service availability never depends
// on the disk — but every affected job is marked durable:false with a
// last_error in the status API, journal appends are skipped (the storage is
// sick; the probe owns recovery), cache writes are skipped (serve from
// memory), and readyz reports "degraded". The background probe re-arms by
// proving the same write path a record takes (append + fsync) and then
// rewriting the journal to a consistent WAL of the live jobs' accept
// records — healing torn tails and dropping records that were skipped while
// degraded — before the daemon claims durability again.
type DurabilityState string

const (
	// DurabilityDisabled: no state directory — nothing is ever durable, by
	// configuration rather than by fault. readyz stays "ready".
	DurabilityDisabled DurabilityState = "disabled"
	// DurabilityArmed: the journal is open and storage writes are succeeding.
	DurabilityArmed DurabilityState = "armed"
	// DurabilityDegraded: a storage write exhausted its retries; jobs run
	// with durable:false until the re-arm probe restores the WAL.
	DurabilityDegraded DurabilityState = "degraded"
)

const (
	// DefaultStorageAttempts bounds one storage write's attempts (first try
	// plus retries) before the daemon degrades. Three matches the supervise
	// default: transient stalls (a busy volume, an NFS hiccup) get two more
	// chances; a full or dead disk degrades within milliseconds.
	DefaultStorageAttempts = 3
	// DefaultStorageBackoff is the first storage-retry delay (doubled per
	// retry, full-jitter). 5 ms spans short I/O scheduler stalls without
	// holding a worker hostage to a dead disk.
	DefaultStorageBackoff = 5 * time.Millisecond
	// DefaultRearmProbe is the degraded-mode probe cadence. Two seconds
	// bounds how long a recovered volume goes unnoticed while keeping the
	// probe (one append + one compacting rewrite per tick) invisible in the
	// I/O budget.
	DefaultRearmProbe = 2 * time.Second
)

// journalKindProbe tags re-arm probe records. Replay ignores unknown kinds
// and every compaction drops them, so a probe record is pure write-path
// evidence, never state.
const journalKindProbe = "serve-probe"

// probeRec is the probe record payload.
type probeRec struct {
	At string `json:"at"`
}

// storageFailure classifies an error as a storage-layer failure worth
// retrying and degrading over: anything except a serialization bug
// (simerr.ErrBadInput — retrying cannot fix a non-marshallable payload and
// the disk is not at fault) or cancellation (the daemon is shutting down).
func storageFailure(err error) bool {
	return err != nil &&
		!errors.Is(err, simerr.ErrBadInput) &&
		!errors.Is(err, simerr.ErrCancelled)
}

// storageRetry runs one recovery-critical storage write under the bounded,
// jittered storage policy (Config.StoragePolicy), returning the final error
// once the budget is exhausted. Call without holding s.mu — the write
// fsyncs and the retries sleep.
func (s *Server) storageRetry(op func() error) error {
	s.mu.Lock()
	ctx := s.runCtx
	s.mu.Unlock()
	_, st := supervise.Do(ctx, s.storagePol, 0, func(context.Context, float64) (struct{}, error) {
		return struct{}{}, op()
	})
	if st.Attempts > 1 {
		s.mu.Lock()
		s.stats.StorageRetries += int64(st.Attempts - 1)
		s.mu.Unlock()
	}
	return st.Err
}

// degraded reports whether durability is currently degraded.
func (s *Server) degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durState == DurabilityDegraded
}

// Durability returns the current durability state.
func (s *Server) Durability() DurabilityState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durState
}

// degradeOn records a persistent storage-write failure: if it is a genuine
// storage failure and durability was armed, the daemon flips to degraded
// (one transition, one log line; the probe goroutine owns the way back).
func (s *Server) degradeOn(what string, err error) {
	if !storageFailure(err) {
		return
	}
	s.mu.Lock()
	cause := fmt.Sprintf("%s: %v", what, err)
	if s.durState != DurabilityArmed {
		if s.durState == DurabilityDegraded {
			s.durLastErr = cause
		}
		s.mu.Unlock()
		return
	}
	s.durState = DurabilityDegraded
	s.durLastErr = cause
	s.stats.DegradeEvents++
	probe := s.cfg.RearmProbe
	s.mu.Unlock()
	s.logf("durability degraded (%s): %v — jobs continue with durable:false; re-arm probe every %v", what, err, probe)
}

// markNonDurableLocked strips a job's durability claim and records why.
// Caller holds s.mu.
func (s *Server) markNonDurableLocked(jb *job, why string) {
	jb.durable = false
	jb.lastErr = why
}

// rearmProbe is the durability probe goroutine (launched by Start whenever
// persistence is configured, accounted on s.wg): a ticker that no-ops while
// armed and attempts a re-arm cycle while degraded, exiting on drain or on
// the pool context.
func (s *Server) rearmProbe() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RearmProbe)
	defer t.Stop()
	var done <-chan struct{}
	s.mu.Lock()
	if s.runCtx != nil {
		done = s.runCtx.Done()
	}
	s.mu.Unlock()
	for {
		select {
		case <-s.probeStop:
			return
		case <-done:
			return
		case <-t.C:
			s.tryRearm()
		}
	}
}

// tryRearm attempts one degraded→armed transition. The sequence is the
// contract documented on DurabilityState:
//
//  1. Prove the append path: one probe record through the same
//     write+fsync a job record takes. A journal that never opened is
//     reopened first. An append refused because a torn tail could not be
//     healed falls through — the rewrite below rebuilds the file wholesale.
//  2. Rewrite the journal to a consistent WAL: exactly one accept record
//     per live (non-terminal) job, in acceptance order. This erases torn
//     bytes, probe records, and the staleness accumulated while appends
//     were skipped. Only after the rewrite lands is durability claimed.
//  3. Restore the durable flag for exactly the jobs whose accept records
//     the rewrite captured, and re-flush any sweep snapshot generation
//     that failed or was skipped while degraded, so durable:true is true
//     in substance when it reappears. A job admitted between the live-set
//     capture and the rewrite landing skipped its degraded-mode append and
//     is absent from the new WAL — it is caught up with its own append
//     after the flip, and claims durability only once that append lands.
//
// A job that finalises between the live-set capture and the rewrite keeps an
// accept record without a finish; a crash then replays a finished job, which
// re-executes deterministically under its original id — wasteful, never
// wrong. (Replay treats a finished id as settled regardless of record
// order, so a catch-up accept landing after the job's finish record is
// equally harmless.)
func (s *Server) tryRearm() {
	s.mu.Lock()
	if s.durState != DurabilityDegraded || s.draining {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	j, err := s.openJournal()
	if err != nil {
		s.noteProbeFailure(err)
		return
	}
	if err := j.Append(journalKindProbe, probeRec{At: stamp(time.Now())}); err != nil {
		if !errors.Is(err, checkpoint.ErrTailUnhealed) {
			s.noteProbeFailure(err)
			return
		}
		// Unhealed torn tail: the rewrite below is the heal.
	}

	s.mu.Lock()
	keep, captured := s.liveAcceptRecordsLocked()
	s.mu.Unlock()
	if err := j.Rewrite(keep); err != nil {
		s.noteProbeFailure(err)
		return
	}

	// The rewrite proved the write path, but it vouches only for the jobs it
	// captured: one submitted while the rewrite's fsyncs were in flight had
	// its degraded-mode append skipped and is in neither the old nor the new
	// WAL. Restoring durable:true for it would be exactly the silent
	// non-durability this state machine exists to prevent — such jobs are
	// collected for a catch-up append below and keep durable:false until it
	// lands.
	type catchup struct {
		jb  *job
		rec jobAcceptRec
		// lastErr at collection time: the restore after a successful append
		// must not paper over a storage failure recorded since.
		lastErr string
	}
	var reflush []*job
	var missed []catchup
	s.mu.Lock()
	s.durState = DurabilityArmed
	s.durLastErr = ""
	s.stats.RearmEvents++
	for _, id := range s.order {
		jb, ok := s.jobs[id]
		if !ok || jb.state.Terminal() {
			continue
		}
		if !captured[id] {
			missed = append(missed, catchup{
				jb: jb,
				rec: jobAcceptRec{
					ID: jb.id, Board: jb.rawBoard, Sweep: jb.sweep,
					DeadlineMS: jb.deadline.Milliseconds(), Fingerprint: jb.fingerprint,
					Accepted: stamp(jb.submitted),
				},
				lastErr: jb.lastErr,
			})
			continue
		}
		jb.durable = true
		jb.lastErr = ""
		if jb.sweep != nil {
			reflush = append(reflush, jb)
		}
	}
	s.mu.Unlock()

	for _, c := range missed {
		err := s.storageRetry(func() error { return j.Append(journalKindAccept, c.rec) })
		s.mu.Lock()
		if err == nil {
			if c.jb.lastErr == c.lastErr {
				c.jb.durable = true
				c.jb.lastErr = ""
				if c.jb.sweep != nil && !c.jb.state.Terminal() {
					reflush = append(reflush, c.jb)
				}
			}
			s.mu.Unlock()
			continue
		}
		s.stats.JournalErrors++
		s.markNonDurableLocked(c.jb, fmt.Sprintf("journal append (%s) failed: %v", journalKindAccept, err))
		s.mu.Unlock()
		s.degradeOn("journal append (re-arm catch-up)", err)
	}

	for _, jb := range reflush {
		jb.sweepMu.Lock()
		gen := jb.snapGen
		pending := gen > jb.snapWritten
		jb.sweepMu.Unlock()
		if pending {
			s.flushSweepSnapshot(jb, "re-arm", gen)
		}
	}
	s.logf("durability re-armed: journal rewritten with %d live accept record(s)", len(keep))
}

// noteProbeFailure records a failed probe cycle (silently: one log line per
// transition, not per tick — the status API carries the live cause).
func (s *Server) noteProbeFailure(err error) {
	s.mu.Lock()
	if s.durState == DurabilityDegraded {
		s.durLastErr = fmt.Sprintf("re-arm probe: %v", err)
	}
	s.mu.Unlock()
}

// openJournal returns the open job journal, first opening it when it never
// opened (Start's attempt failed) or was closed.
func (s *Server) openJournal() (*checkpoint.Journal, error) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j != nil {
		return j, nil
	}
	nj, err := checkpoint.OpenJournal(filepath.Join(s.cfg.StateDir, journalFile))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.journal == nil {
		s.journal, nj = nj, nil
	}
	j = s.journal
	s.mu.Unlock()
	if nj != nil {
		// A concurrent path installed a journal first; keep that one.
		nj.Close()
	}
	return j, nil
}

// liveAcceptRecordsLocked renders one fresh accept record per job a restart
// must re-admit — every non-terminal job, plus flushed ones (terminal for
// the status API, but never run) — in acceptance order: the compaction set
// for Rewrite. It also returns the id set of the jobs actually captured, so
// the caller can restore durability claims for exactly those and no others.
// Caller holds s.mu.
func (s *Server) liveAcceptRecordsLocked() ([]checkpoint.JournalRecord, map[string]bool) {
	var keep []checkpoint.JournalRecord
	captured := make(map[string]bool)
	for _, id := range s.order {
		jb, ok := s.jobs[id]
		if !ok || (jb.state.Terminal() && jb.state != StateFlushed) {
			continue
		}
		rec := jobAcceptRec{
			ID: jb.id, Board: jb.rawBoard, Sweep: jb.sweep,
			DeadlineMS: jb.deadline.Milliseconds(), Fingerprint: jb.fingerprint,
			Accepted: stamp(jb.submitted),
		}
		if b, err := json.Marshal(rec); err == nil {
			keep = append(keep, checkpoint.JournalRecord{Kind: journalKindAccept, Payload: b})
			captured[jb.id] = true
		}
	}
	return keep, captured
}

// logf reports a durability event through Config.Logf when the operator
// wired one (cmd/pdnserve routes it to stderr); silent otherwise.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
