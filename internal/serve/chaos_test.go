package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/core"
	"pdnsim/internal/mat"
	"pdnsim/internal/serve"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"
)

// The chaos suite injects the failure modes a production daemon meets —
// singular storms, pathological slowness against deadlines, queue saturation,
// partial sweeps, and shutdown mid-job — and asserts the daemon's invariants:
// no goroutine leaks, no accepted job ever silently dropped (every one ends
// in a queryable terminal state), and drain always terminates.

// stormExtract always fails with a singular system, as if every board hit an
// exactly-degenerate mesh.
func stormExtract(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
	err := &simerr.SingularError{Op: "chaos: storm", Row: -1}
	return nil, supervise.Status{Attempts: supervise.DefaultMaxAttempts, Err: err}, err
}

// hangExtract blocks until the job's deadline kills it — a solve that would
// run forever without the per-job context.
func hangExtract(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
	<-ctx.Done()
	return nil, supervise.Status{}, &simerr.CancelledError{Op: "chaos: hung solve", Err: ctx.Err()}
}

// delayedExtract front-loads a context-aware delay before the real
// extraction, so the worker pool stays busy long enough to observe admission
// behaviour under load.
func delayedExtract(delay time.Duration) func(context.Context, *core.BoardSpec, supervise.Policy) (*core.Result, supervise.Status, error) {
	return func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, supervise.Status{}, &simerr.CancelledError{Op: "chaos: slow extract", Err: ctx.Err()}
		case <-t.C:
		}
		return spec.ExtractSupervisedCtx(ctx, pol)
	}
}

// slowSweep wraps the real supervised shard sweep with a per-point
// context-aware delay, stretching a sweep's wall time without changing its
// numbers.
func slowSweep(perPoint time.Duration) func(context.Context, []float64, int, int, []bool, sparam.SweepOptions, sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
	return func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
		slow := func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
			t := time.NewTimer(perPoint)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return nil, &simerr.CancelledError{Op: "chaos: slow point", Err: ctx.Err()}
			case <-t.C:
			}
			return zAt(ctx, omega)
		}
		return sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, slow)
	}
}

// poleSweep wraps the real shard sweep but makes every evaluation within 1%
// of fBad (Hz) singular — a resonance pole the supervisor's ppb perturbations
// cannot step over, so that one point fails for good while the rest succeed.
func poleSweep(fBad float64) func(context.Context, []float64, int, int, []bool, sparam.SweepOptions, sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
	return func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
		poisoned := func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
			f := omega / (2 * math.Pi)
			if math.Abs(f-fBad) < 0.01*fBad {
				return nil, &simerr.SingularError{Op: "chaos: resonance pole", Row: -1}
			}
			return zAt(ctx, omega)
		}
		return sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, poisoned)
	}
}

// TestSingularStormFailsJobsNotDaemon: every solve failing singular must
// produce per-job "failed" records with the singular class — and a daemon
// that keeps accepting, with all workers alive.
func TestSingularStormFailsJobsNotDaemon(t *testing.T) {
	check := noLeaks(t)
	s := startServer(t, serve.Config{Workers: 2, QueueCap: 32},
		serve.Hooks{Extract: stormExtract})
	ctx := context.Background()

	const n = 6
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Submit(ctx, &serve.JobRequest{Board: []byte(testBoard)})
		if err != nil {
			t.Fatalf("storm submit #%d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := waitTerminal(t, s, id, 30*time.Second)
		if st.State != serve.StateFailed {
			t.Fatalf("job %s state = %q, want failed", id, st.State)
		}
		if st.ErrorClass != "singular" {
			t.Fatalf("job %s error_class = %q, want singular", id, st.ErrorClass)
		}
		if st.ExtractAttempts != supervise.DefaultMaxAttempts {
			t.Fatalf("job %s attempts = %d, want the full supervised budget %d",
				id, st.ExtractAttempts, supervise.DefaultMaxAttempts)
		}
	}
	if !s.Ready() {
		t.Fatal("the daemon must keep accepting through a failure storm")
	}
	if got := s.Stats().Completed; got != n {
		t.Fatalf("completed = %d, want %d — a failed job still completes", got, n)
	}
	if _, err := s.Submit(ctx, &serve.JobRequest{Board: []byte(testBoard)}); err != nil {
		t.Fatalf("post-storm submit refused: %v", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestDeadlineKillsHungSolve: a solve that never returns costs exactly its
// deadline, never a worker forever, and lands in "cancelled" with the
// cancelled class.
func TestDeadlineKillsHungSolve(t *testing.T) {
	check := noLeaks(t)
	s := startServer(t, serve.Config{Workers: 1}, serve.Hooks{Extract: hangExtract})

	start := time.Now()
	id, err := s.Submit(context.Background(),
		&serve.JobRequest{Board: []byte(testBoard), DeadlineMS: 60})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, 30*time.Second)
	if st.State != serve.StateCancelled {
		t.Fatalf("state = %q (error %q), want cancelled", st.State, st.Error)
	}
	if st.ErrorClass != "cancelled" {
		t.Fatalf("error_class = %q, want cancelled", st.ErrorClass)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline expiry took %v — the worker sat hung", elapsed)
	}
	if st.SnapshotPath != "" {
		t.Fatalf("no sweep ran; nothing to snapshot, got %q", st.SnapshotPath)
	}

	// The worker survived: the next job on the same pool completes.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestSaturationSheds429: with one slow worker and a two-deep queue, a burst
// of submissions must split into accepted (202) and shed (429 with a
// Retry-After estimate) — and every accepted job must reach a terminal
// state. Nothing the daemon said 202 to may vanish.
func TestSaturationSheds429(t *testing.T) {
	check := noLeaks(t)
	s := startServer(t, serve.Config{Workers: 1, QueueCap: 2},
		serve.Hooks{Extract: delayedExtract(80 * time.Millisecond)})
	hs := httptest.NewServer(s.Handler())
	client := hs.Client()

	const burst = 12
	var accepted []string
	rejected := 0
	for i := 0; i < burst; i++ {
		resp := postJob(t, client, hs.URL, &serve.JobRequest{Board: []byte(testBoard)})
		switch resp.StatusCode {
		case http.StatusAccepted:
			body := decodeBody[map[string]string](t, resp)
			accepted = append(accepted, body["id"])
		case http.StatusTooManyRequests:
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 without a usable Retry-After: %q (%v)",
					resp.Header.Get("Retry-After"), err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected++
		default:
			t.Fatalf("submission #%d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if len(accepted) < 2 || rejected < 1 {
		t.Fatalf("burst split %d accepted / %d rejected — saturation never shed", len(accepted), rejected)
	}
	if len(accepted)+rejected != burst {
		t.Fatalf("submissions unaccounted for: %d + %d != %d", len(accepted), rejected, burst)
	}

	// No silent drops: every accepted job reaches a terminal state and stays
	// queryable; the daemon's own ledger agrees.
	for _, id := range accepted {
		st := waitTerminal(t, s, id, 30*time.Second)
		if st.State != serve.StateDone {
			t.Fatalf("accepted job %s ended %q (error %q), want done", id, st.State, st.Error)
		}
	}
	stats := s.Stats()
	if stats.Accepted != int64(len(accepted)) || stats.Rejected != int64(rejected) {
		t.Fatalf("ledger mismatch: stats %+v vs observed %d/%d", stats, len(accepted), rejected)
	}
	if stats.Completed != int64(len(accepted)) {
		t.Fatalf("completed = %d, want %d", stats.Completed, len(accepted))
	}

	// Load shedding is transient: once the backlog clears, submissions flow.
	resp := postJob(t, client, hs.URL, &serve.JobRequest{Board: []byte(testBoard)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-saturation submit = %d, want 202", resp.StatusCode)
	}
	body := decodeBody[map[string]string](t, resp)
	waitTerminal(t, s, body["id"], 30*time.Second)

	client.CloseIdleConnections()
	hs.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestPartialSweepIs200WithPointDetail: a sweep with one unsolvable point
// degrades to "partial" — reported over HTTP as 200 with per-point detail
// and a touchstone of the surviving points, never as a failed job.
func TestPartialSweepIs200WithPointDetail(t *testing.T) {
	freqs := sparam.LinSpace(1e6, 1e9, 5)
	fBad := freqs[2]
	s := startServer(t, serve.Config{Workers: 1}, serve.Hooks{Sweep: poleSweep(fBad)})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := hs.Client()
	defer client.CloseIdleConnections()

	resp := postJob(t, client, hs.URL, sweepReq(5, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	id := decodeBody[map[string]string](t, resp)["id"]
	waitTerminal(t, s, id, 30*time.Second)

	resp, err := client.Get(hs.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial job status fetch = %d, want 200 — partial is a result, not an error", resp.StatusCode)
	}
	st := decodeBody[serve.JobStatus](t, resp)
	if st.State != serve.StatePartial || st.ErrorClass != "partial" {
		t.Fatalf("state=%q class=%q, want partial/partial (error %q)", st.State, st.ErrorClass, st.Error)
	}
	if st.Sweep == nil || st.Sweep.Points != 5 || st.Sweep.Failed != 1 {
		t.Fatalf("sweep report = %+v, want 5 points with 1 failed", st.Sweep)
	}
	found := false
	for _, p := range st.Sweep.Abnormal {
		if p.Error != "" {
			found = true
			if math.Abs(p.FreqHz-fBad) > 0.01*fBad {
				t.Fatalf("failed point at %g Hz, injected pole at %g Hz", p.FreqHz, fBad)
			}
			if p.Attempts != supervise.DefaultMaxAttempts {
				t.Fatalf("failed point consumed %d attempts, want the full budget %d",
					p.Attempts, supervise.DefaultMaxAttempts)
			}
		}
	}
	if !found {
		t.Fatalf("abnormal points carry no error detail: %+v", st.Sweep.Abnormal)
	}

	// The touchstone serves the four surviving points.
	resp, err = client.Get(hs.URL + "/jobs/" + id + "/touchstone")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("partial touchstone: %v %v", err, resp)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dataLines := 0
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		dataLines++
	}
	if dataLines != 4 {
		t.Fatalf("touchstone has %d data lines, want the 4 surviving points", dataLines)
	}
}

// TestDrainSnapshotsInFlightAndFlushesQueue is the shutdown invariant: a
// drain whose grace expires mid-job must still terminate, cancelling the
// in-flight sweep so it flushes a resumable snapshot, flushing queued jobs
// with their journal accept records kept, and leaving every accepted job in a
// queryable terminal state.
// The flushed snapshot then actually resumes on a fresh daemon.
func TestDrainSnapshotsInFlightAndFlushesQueue(t *testing.T) {
	check := noLeaks(t)
	dir := t.TempDir()
	cfg := serve.Config{Workers: 1, QueueCap: 8, StateDir: dir, CheckpointEvery: 2}
	s := serve.New(cfg, serve.Hooks{Sweep: slowSweep(30 * time.Millisecond)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// Job A runs a long slow sweep; B and C sit in the queue behind the
	// single worker.
	idA, err := s.Submit(context.Background(), sweepReq(80, ""))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Submit(context.Background(), sweepReq(10, ""))
	if err != nil {
		t.Fatal(err)
	}
	idC, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatal(err)
	}

	// Let A get properly into its sweep (a few checkpointed chunks deep).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.JobStatus(idA)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateRunning && st.Started != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond)

	// Drain with an already-tight grace: escalation must cancel A.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	start := time.Now()
	rep := s.Drain(dctx)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("drain took %v — it must always terminate promptly", elapsed)
	}
	if rep.Snapshotted != 1 || rep.Flushed != 2 || rep.Finished != 0 || rep.Cancelled != 0 {
		t.Fatalf("drain report = %+v, want 1 snapshotted / 2 flushed", rep)
	}

	// A: snapshotted with a loadable resume path.
	stA, err := s.JobStatus(idA)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != serve.StateSnapshotted || stA.SnapshotPath == "" {
		t.Fatalf("job A = %+v, want snapshotted with a path", stA)
	}
	if stA.ErrorClass != "cancelled" {
		t.Fatalf("job A error_class = %q, want cancelled", stA.ErrorClass)
	}

	// B and C: flushed, terminal, queryable — not silently dropped.
	for _, id := range []string{idB, idC} {
		st, err := s.JobStatus(id)
		if err != nil {
			t.Fatalf("flushed job %s vanished: %v", id, err)
		}
		if st.State != serve.StateFlushed {
			t.Fatalf("queued job %s = %q, want flushed", id, st.State)
		}
	}

	// Both queued jobs keep their accept records, with sweep specs and no
	// finish, so a restart re-admits them from the journal.
	recs, _, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	accepted := make(map[string]*serve.JobRequest)
	for _, r := range recs {
		var rec struct {
			ID string `json:"id"`
			serve.JobRequest
		}
		if json.Unmarshal(r.Payload, &rec) != nil {
			t.Fatalf("undecodable %s record: %s", r.Kind, r.Payload)
		}
		if rec.ID != idB && rec.ID != idC {
			continue
		}
		switch r.Kind {
		case "serve-accept":
			accepted[rec.ID] = &rec.JobRequest
		case "serve-finish":
			t.Fatalf("flushed job %s has a finish record; a restart would not re-admit it", rec.ID)
		}
	}
	if b, c := accepted[idB], accepted[idC]; b == nil || c == nil || b.Sweep == nil || b.Sweep.NF != 10 || c.Sweep != nil {
		t.Fatalf("journal accepts for the flushed jobs lost or changed their sweep specs: %+v", accepted)
	}

	// Drain is idempotent, and the daemon refuses new work.
	if rep2 := s.Drain(context.Background()); rep2 != rep {
		t.Fatalf("second drain report %+v != first %+v", rep2, rep)
	}
	if _, err := s.Submit(context.Background(), sweepReq(3, "")); err == nil {
		t.Fatal("a drained daemon must refuse submissions")
	}
	check()

	// The snapshot resumes: a fresh daemon over the same state directory
	// picks A's sweep back up and finishes it, restoring completed points
	// instead of recomputing them.
	s2 := startServer(t, serve.Config{Workers: 1, StateDir: dir, CheckpointEvery: 2}, serve.Hooks{})
	idR, err := s2.Submit(context.Background(), sweepReq(80, stA.SnapshotPath))
	if err != nil {
		t.Fatal(err)
	}
	stR := waitTerminal(t, s2, idR, 60*time.Second)
	if stR.State != serve.StateDone {
		t.Fatalf("resumed job = %q (error %q), want done", stR.State, stR.Error)
	}
	if stR.Sweep == nil || stR.Sweep.Points != 80 || stR.Sweep.Restored < 1 {
		t.Fatalf("resume recomputed everything: %+v", stR.Sweep)
	}
	ts, err := s2.Touchstone(idR)
	if err != nil || ts == "" {
		t.Fatalf("resumed sweep has no touchstone: %v", err)
	}
}
