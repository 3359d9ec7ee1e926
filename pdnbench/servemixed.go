package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pdnsim/internal/core"
	"pdnsim/internal/mat"
	"pdnsim/internal/serve"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"
)

// Open-loop serving settings.
const (
	// latencyLimitMs is the service's latency limit: the ladder's highest
	// rate is the highest whose p90 stays under it.
	latencyLimitMs = 100.0
	// rungJobs is one ladder rung's arrivals: enough for a p90 with ten
	// samples beyond it.
	rungJobs = 150
	// maxRungs bounds the ladder's climb and bisection.
	maxRungs = 8
	// ladderShare is the part of the traced run the ladder may use.
	ladderShare = 0.2
	// ladderResolution stops the bisection once the passing and failing
	// rates are this close (relative).
	ladderResolution = 0.05
	// jobWait bounds how long a phase waits for its jobs to finish after
	// the last arrival; a job still running then counts as failed.
	jobWait = 60 * time.Second
	// pollEvery is how often finished-job status is collected. Latency is
	// read from the daemon's Finished stamp, so polling adds nothing to it.
	pollEvery = 5 * time.Millisecond
	// burstInFlight is how many jobs a burst keeps outstanding: enough to
	// keep both workers busy between polls, under the queue's 16.
	burstInFlight = 12
	// burstJobs is one burst's size.
	burstJobs = 200
	// maxBursts bounds the bursts a run generates; an untraced 28-s run
	// sends 40 to 80, depending on the machine's speed.
	maxBursts = 80
	// journalFile is the daemon's write-ahead journal inside its StateDir.
	journalFile = "jobs.journal"
)

// Traced-run shares: the part of the run the burst leg may use, and the
// lo and hi phases' lengths (the ladder takes ladderShare).
const (
	burstShare = 0.4
	loShare    = 0.1
	hiShare    = 0.3
)

// servePhases sizes a run's phases from its length. Both modes start with
// the same bursts: closed loops that keep the daemon busy, for the
// end-to-end numbers and the traced run's layer breakdown of them. The
// traced run adds the open-loop lo and hi phases and the rate ladder's
// rungs, generated at unit rate and stretched to whatever rate the ladder
// picks. The bursts come first from the seed's generator, so a seed gives
// both modes the same burst jobs.
func servePhases(cfg runConfig) []phaseSpec {
	ps := make([]phaseSpec, maxBursts)
	for k := range ps {
		ps[k] = phaseSpec{fmt.Sprintf("burst-%d", k), burst, 0, burstJobs}
	}
	if !cfg.Trace {
		return ps
	}
	n := func(rate, share float64) int { return int(rate*share*cfg.Seconds + 0.5) }
	ps = append(ps,
		phaseSpec{"lo", open, serveRateLo, n(serveRateLo, loShare)},
		phaseSpec{"hi", open, serveRateHi, n(serveRateHi, hiShare)})
	for k := 0; k < maxRungs; k++ {
		ps = append(ps, phaseSpec{fmt.Sprintf("rung-%d", k), rung, 1, rungJobs})
	}
	return ps
}

// serveHooks wrap the daemon's default solver entry points to time each
// extraction and each sweep shard from outside.
type serveHooks struct {
	rec atomic.Pointer[recorder] // nil until the measured phases start

	mu              sync.Mutex
	extract, shards []float64 // ms per call
}

// timed runs call inside a span and books the span's duration.
func (h *serveHooks) timed(name, id string, into *[]float64, call func()) {
	rec := h.rec.Load()
	if rec == nil { // set-up's warm-up jobs
		call()
		return
	}
	sp := rec.begin(name, id, -1)
	call()
	d := rec.end(sp)
	h.mu.Lock()
	*into = append(*into, ms(d))
	h.mu.Unlock()
}

// take returns the per-call times booked so far and starts afresh.
func (h *serveHooks) take() (extract, shards []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	extract, shards = h.extract, h.shards
	h.extract, h.shards = nil, nil
	return extract, shards
}

func (h *serveHooks) hooks() serve.Hooks {
	return serve.Hooks{
		Extract: func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (res *core.Result, st supervise.Status, err error) {
			h.timed("serve.extract", spec.Name, &h.extract, func() { res, st, err = spec.ExtractSupervisedCtx(ctx, pol) })
			return res, st, err
		},
		Sweep: func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) (s []*mat.CMatrix, st []sparam.PointStatus, err error) {
			h.timed("serve.shard", fmt.Sprintf("points[%d,%d)", lo, hi), &h.shards, func() {
				s, st, err = sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, zAt)
			})
			return s, st, err
		},
	}
}

// daemon is one started in-process serve.Server and its state directory.
type daemon struct {
	srv    *serve.Server
	dir    string
	cancel context.CancelFunc
}

// startDaemon starts a daemon with two workers and a fresh state directory
// (journal, operator cache and sweep snapshots on), and warms it by
// extracting every pooled board once.
func startDaemon(ctx context.Context, name string, hooks serve.Hooks, pool []serveJob) (*daemon, error) {
	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("serve-state-%d-%s", os.Getpid(), name)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	stateFS.drop(dir)
	d := &daemon{dir: dir, srv: serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), StateDir: dir}, hooks)}
	sctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.srv.Start(sctx)
	warm := servePhase{phaseSpec: phaseSpec{Name: "warm-up", Rate: 1e9, N: len(pool)}, Jobs: pool}
	for _, j := range d.phase(ctx, warm) {
		if err := j.err(); err != nil {
			d.close()
			return nil, fmt.Errorf("%s daemon warm-up job %s: %w", name, j.job.Board.Name, err)
		}
	}
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.cancel()
	_ = os.RemoveAll(d.dir) // best effort: the next set-up removes it again
	stateFS.drop(d.dir)
}

// serveRunner is a started daemon with its traffic.
type serveRunner struct {
	in serveInputs
	d  *daemon // runs the daemon's own solvers, or the hooks when traced
	// Traced runs only: the hooks d runs, and an untraced twin that gets
	// the same bursts.
	hooks *serveHooks
	twin  *daemon
	base  serve.Stats // d's counters after warm-up
	// baseJournal and baseState are the bytes d wrote during warm-up.
	baseJournal, baseState int64
	// cold holds each pooled board's total capacitance from a cold
	// extraction, for checking cache hits.
	cold map[string]float64
}

// setupServe generates the traffic and starts the daemon (and, traced, its
// untraced twin).
func setupServe(ctx context.Context, cfg runConfig) (runner, error) {
	installMemFS()
	in, err := genServe(cfg.Seed, servePhases(cfg))
	if err != nil {
		return nil, err
	}
	r := &serveRunner{in: in, cold: map[string]float64{}}
	if cfg.Trace {
		r.hooks = &serveHooks{}
	}
	if err := r.start(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// start starts the daemon (and, traced, its twin) with a fresh state
// directory and the pooled boards extracted.
func (r *serveRunner) start(ctx context.Context) (err error) {
	var hooks serve.Hooks
	if r.hooks != nil {
		hooks = r.hooks.hooks()
		if r.twin, err = startDaemon(ctx, "twin", serve.Hooks{}, r.in.Pool); err != nil {
			return err
		}
	}
	if r.d, err = startDaemon(ctx, "main", hooks, r.in.Pool); err != nil {
		return err
	}
	r.base = r.d.srv.Stats()
	r.baseJournal, r.baseState = stateFS.writtenUnder(r.d.dir)
	return nil
}

// restart replaces the daemons with freshly started ones, so that every
// burst starts from the same state: the pool cached, an empty journal and
// no retained jobs. Otherwise each burst would find the journal, the cache
// and the job table larger than the one before, and a burst's time would
// depend on how many came before it. The hooks time nothing meanwhile.
func (r *serveRunner) restart(ctx context.Context) error {
	if r.hooks != nil {
		rec := r.hooks.rec.Swap(nil)
		defer r.hooks.rec.Store(rec)
	}
	r.close()
	r.d, r.twin = nil, nil
	return r.start(ctx)
}

func (r *serveRunner) close() {
	for _, d := range []*daemon{r.d, r.twin} {
		if d != nil {
			d.close()
		}
	}
}

// sent is one arrival and what became of it.
type sent struct {
	job       serveJob
	due, at   time.Time // when it was due and when it was submitted
	id        string
	submitErr error
	st        serve.JobStatus
	waitErr   error
}

// err is nil when the job was accepted, finished done and durable.
func (s sent) err() error {
	switch {
	case s.submitErr != nil:
		return fmt.Errorf("submit: %w", s.submitErr)
	case s.waitErr != nil:
		return s.waitErr
	case s.st.State != serve.StateDone:
		return fmt.Errorf("job %s ended %s: %s", s.id, s.st.State, s.st.Error)
	case !s.st.Durable:
		return fmt.Errorf("job %s finished with durable:false", s.id)
	}
	return nil
}

// stamps parses the daemon's Submitted, Started and Finished stamps.
func (s sent) stamps() (sub, start, fin time.Time, err error) {
	sub, e1 := time.Parse(time.RFC3339Nano, s.st.Submitted)
	start, e2 := time.Parse(time.RFC3339Nano, s.st.Started)
	fin, e3 := time.Parse(time.RFC3339Nano, s.st.Finished)
	if err := errors.Join(e1, e2, e3); err != nil {
		return sub, start, fin, fmt.Errorf("job %s stamps: %w", s.id, err)
	}
	return sub, start, fin, nil
}

// latencyMs is due-to-finished, the wait a user of the daemon sees.
func (s sent) latencyMs() (float64, error) {
	_, _, fin, err := s.stamps()
	return ms(fin.Sub(s.due)), err
}

// runMs returns each finished job's Started-to-Finished time.
func runMs(jobs []sent) []float64 {
	var out []float64
	for _, s := range jobs {
		if _, start, fin, err := s.stamps(); err == nil {
			out = append(out, ms(fin.Sub(start)))
		}
	}
	return out
}

// pause waits d, or until ctx ends.
func pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// phase sends a phase's arrivals on schedule from this goroutine — the one
// load generator — then waits for every accepted job to end.
func (d *daemon) phase(ctx context.Context, p servePhase) []sent {
	out := make([]sent, 0, len(p.Jobs))
	t0 := time.Now()
	for _, j := range p.Jobs {
		due := t0.Add(time.Duration(j.DueS * float64(time.Second)))
		if err := pause(ctx, time.Until(due)); err != nil {
			break
		}
		s := sent{job: j, due: due, at: time.Now()}
		s.id, s.submitErr = d.srv.Submit(ctx, &serve.JobRequest{Board: j.Raw, Sweep: serveSweep()})
		out = append(out, s)
	}
	deadline := time.Now().Add(jobWait)
	for i := range out {
		if out[i].submitErr != nil {
			continue
		}
		for {
			st, err := d.srv.JobStatus(out[i].id)
			if err != nil {
				out[i].waitErr = err
				break
			}
			if st.State.Terminal() {
				out[i].st = st
				break
			}
			if time.Now().After(deadline) {
				out[i].waitErr = fmt.Errorf("job %s still %s %v after the last arrival", out[i].id, st.State, jobWait)
				break
			}
			if err := pause(ctx, pollEvery); err != nil {
				out[i].waitErr = err
				break
			}
		}
	}
	return out
}

// burst submits a phase's jobs as a closed loop that keeps burstInFlight
// jobs outstanding, so the workers never idle and the queue never fills,
// and returns the jobs with the burst's wall time: first submission to the
// last Finished stamp.
func (d *daemon) burst(ctx context.Context, p servePhase) ([]sent, time.Duration) {
	out := make([]sent, 0, len(p.Jobs))
	var pending []int
	t0 := time.Now()
	last := t0
	deadline := t0.Add(jobWait)
	for len(out) < len(p.Jobs) || len(pending) > 0 {
		for len(out) < len(p.Jobs) && len(pending) < burstInFlight {
			j := p.Jobs[len(out)]
			now := time.Now()
			s := sent{job: j, due: now, at: now}
			s.id, s.submitErr = d.srv.Submit(ctx, &serve.JobRequest{Board: j.Raw, Sweep: serveSweep()})
			if s.submitErr == nil {
				pending = append(pending, len(out))
			}
			out = append(out, s)
		}
		if err := pause(ctx, pollEvery); err != nil {
			for _, i := range pending {
				out[i].waitErr = err
			}
			break
		}
		// Jobs finish roughly in submission order, so polling stops at the
		// oldest unfinished one: a status read takes the daemon's lock, and
		// reading every outstanding job each tick would load the daemon
		// with the benchmark's own traffic.
		for len(pending) > 0 {
			i := pending[0]
			st, err := d.srv.JobStatus(out[i].id)
			switch {
			case err != nil:
				out[i].waitErr = err
			case st.State.Terminal():
				out[i].st = st
				if fin, err := time.Parse(time.RFC3339Nano, st.Finished); err == nil && fin.After(last) {
					last = fin
				}
			case time.Now().After(deadline):
				out[i].waitErr = fmt.Errorf("job %s still %s %v into its burst", out[i].id, st.State, jobWait)
			default:
				i = -1
			}
			if i < 0 {
				break
			}
			pending = pending[1:]
		}
	}
	return out, last.Sub(t0)
}

// phaseStats is one finished phase.
type phaseStats struct {
	spec      phaseSpec
	jobs      []sent
	latencies []float64 // ms, accepted jobs that finished
	shed      int
}

// record checks a phase's jobs into t and summarises the phase. A ladder
// rung above the daemon's capacity is meant to be refused: there a 429 is
// the rung's verdict, not a failed operation, so refusals are recorded only
// when countShed is set. Accepted jobs are always checked.
func record(spec phaseSpec, jobs []sent, t *tally, countShed bool) phaseStats {
	ps := phaseStats{spec: spec, jobs: jobs}
	for _, s := range jobs {
		if errors.Is(s.submitErr, serve.ErrBusy) {
			ps.shed++
			if !countShed {
				continue
			}
		}
		if s.submitErr == nil && s.waitErr == nil {
			if l, err := s.latencyMs(); err == nil {
				ps.latencies = append(ps.latencies, l)
			}
		}
		t.record(fmt.Sprintf("%s job %s (%s)", spec.Name, s.id, s.job.Board.Name), s.err())
	}
	return ps
}

// report prints a one-line summary of the phase to w (stderr), for a
// reader of the run's log; the result line does not depend on it.
func (ps phaseStats) report(w io.Writer) {
	p50 := median(ps.latencies)
	tail := "p90 n/a"
	if p, err := quantile(ps.latencies, 0.9); err == nil {
		tail = fmt.Sprintf("p90 %.1f ms", p.Value)
	}
	fmt.Fprintf(w, "pdnbench: serve phase %-12s %5.1f jobs/s  %3d jobs  %d shed  p50 %.1f ms  %s  run p50 %.1f ms\n",
		ps.spec.Name, ps.spec.Rate, len(ps.jobs), ps.shed, p50, tail, median(runMs(ps.jobs)))
}

// passes reports whether a rung met the latency limit with nothing shed or
// lost, and its p90.
func (ps phaseStats) passes() (bool, float64) {
	p, err := quantile(ps.latencies, 0.9)
	if err != nil {
		return false, math.Inf(1)
	}
	return ps.shed == 0 && len(ps.latencies) == len(ps.jobs) && p.Value <= latencyLimitMs, p.Value
}

func (r *serveRunner) measure(ctx context.Context, cfg runConfig, res *result) error {
	if cfg.Trace {
		return r.measureTraced(ctx, cfg, res)
	}
	var walls, cpus []float64
	start := time.Now()
	for k, p := range r.in.Phases {
		if k > 0 {
			if err := r.restart(ctx); err != nil {
				return err
			}
		}
		debug.FreeOSMemory() // as before each batch
		c0 := cpuSeconds()
		jobs, wall := r.d.burst(ctx, p)
		cpus = append(cpus, cpuSeconds()-c0)
		walls = append(walls, wall.Seconds())
		record(p.phaseSpec, jobs, &res.tally, true)
		fmt.Fprintf(os.Stderr, "pdnbench: serve %s: %d jobs in %.4f s wall, %.4f s CPU\n",
			p.Name, len(jobs), wall.Seconds(), cpus[len(cpus)-1])
		// Checked now and dropped, so the jobs kept do not grow with the
		// number of bursts, and with them the peak RSS.
		if err := r.checkCacheHits(ctx, jobs, &res.tally); err != nil {
			return err
		}
		if elapsed := time.Since(start).Seconds(); elapsed+elapsed/float64(len(walls)) > cfg.Seconds {
			break
		}
	}
	res.metrics["wall_s"] = median(walls)
	res.metrics["cpu_s"] = median(cpus)
	return nil
}

// measureTraced runs two legs with the hooks timing every extraction and
// shard on the traced daemon. The burst leg sends the untraced run's
// bursts in pairs: each burst goes once to the traced daemon and once to
// its untraced twin, alternating which goes first, so that the layer
// metrics break down the same traffic that wall_s and cpu_s measure, the
// two daemons' outputs can be compared bit for bit, and tracing's cost is
// the traced burst's wall time over its twin's. The open-loop leg then
// sends the lo and hi phases and the rate ladder to the traced daemon.
func (r *serveRunner) measureTraced(ctx context.Context, cfg runConfig, res *result) error {
	r.hooks.rec.Store(res.rec)
	var bursts, opens, rungs []servePhase
	for _, p := range r.in.Phases {
		switch p.Kind {
		case burst:
			bursts = append(bursts, p)
		case open:
			opens = append(opens, p)
		case rung:
			rungs = append(rungs, p)
		}
	}

	var traced []phaseStats
	var overhead []float64
	var lay []burstLayers
	start := time.Now()
	for k, p := range bursts {
		t0 := time.Now()
		if k > 0 {
			if err := r.restart(ctx); err != nil {
				return err
			}
		}
		var tJobs, uJobs []sent
		var tWall, uWall time.Duration
		var syncs int64
		send := func(d *daemon, jobs *[]sent, wall *time.Duration) {
			debug.FreeOSMemory()
			s0 := stateFS.syncCount()
			*jobs, *wall = d.burst(ctx, p)
			if d == r.d {
				syncs = stateFS.syncCount() - s0
			}
		}
		if k%2 == 0 {
			send(r.twin, &uJobs, &uWall)
			send(r.d, &tJobs, &tWall)
		} else {
			send(r.d, &tJobs, &tWall)
			send(r.twin, &uJobs, &uWall)
		}
		lay = append(lay, r.layers(syncs))
		overhead = append(overhead, tWall.Seconds()/uWall.Seconds()-1)
		ps := record(p.phaseSpec, tJobs, &res.tally, true)
		traced = append(traced, ps)
		record(p.phaseSpec, uJobs, &res.tally, true)
		if err := r.checkCacheHits(ctx, append(tJobs, uJobs...), &res.tally); err != nil {
			return err
		}
		var eq error
		if du, dt := burstDigest(uJobs), burstDigest(tJobs); du != dt {
			eq = fmt.Errorf("%s: output digests differ: untraced %016x, traced %016x", p.Name, du, dt)
		}
		res.record("traced/untraced equivalence", eq)
		fmt.Fprintf(os.Stderr, "pdnbench: serve %s: traced %.4f s, untraced %.4f s wall\n", p.Name, tWall.Seconds(), uWall.Seconds())
		step := time.Since(t0).Seconds()
		if time.Since(start).Seconds()+step > burstShare*cfg.Seconds {
			break
		}
	}
	if err := burstMetrics(res, traced, lay, r.hooks); err != nil {
		return err
	}
	res.metrics["trace.overhead_frac"] = median(overhead)
	// The open loop starts from a fresh daemon too, and its refusals are
	// counted from there.
	if err := r.restart(ctx); err != nil {
		return err
	}

	var openLeg []phaseStats
	for _, p := range opens {
		ps := record(p.phaseSpec, r.d.phase(ctx, p), &res.tally, true)
		ps.report(os.Stderr)
		openLeg = append(openLeg, ps)
	}
	rate, ladder := r.ladder(ctx, cfg, openLeg[len(openLeg)-1], rungs, &res.tally)
	openLeg = append(openLeg, ladder...)
	for _, ps := range openLeg {
		if err := r.checkCacheHits(ctx, ps.jobs, &res.tally); err != nil {
			return err
		}
	}
	res.metrics["serve.max_rate_jobs_s"] = rate
	return r.openMetrics(openLeg, res)
}

// burstDigest hashes what a burst's jobs returned, in submission order:
// whether each finished done, and its total capacitance.
func burstDigest(jobs []sent) uint64 {
	d := newDigest()
	for _, s := range jobs {
		done := 0.0
		if s.err() == nil {
			done = 1
		}
		d.floats(done, s.st.CTotal)
	}
	return d.h
}

// ladder finds the highest arrival rate whose p90 latency stays under
// latencyLimitMs with nothing shed or lost. It starts from 0.6 of the
// capacity the hi phase implies (workers over mean service time), climbs by
// a quarter until a rung fails, then bisects to ladderResolution, within
// ladderShare of the run. The hi phase counts as a passing rung.
func (r *serveRunner) ladder(ctx context.Context, cfg runConfig, hi phaseStats, rungs []servePhase, t *tally) (float64, []phaseStats) {
	var pass, fail float64
	if ok, _ := hi.passes(); ok {
		pass = hi.spec.Rate
	}
	rate := 2 * serveRateHi
	if mean := mean(runMs(hi.jobs)); mean > 0 {
		rate = math.Max(rate, 0.6*float64(runtime.GOMAXPROCS(0))*1000/mean)
	}
	var out []phaseStats
	start := time.Now()
	for _, p := range rungs {
		if time.Since(start).Seconds() > ladderShare*cfg.Seconds {
			break
		}
		p.Name = fmt.Sprintf("ladder-%.0f", rate)
		p.Rate = rate
		jobs := make([]serveJob, len(p.Jobs))
		for i, j := range p.Jobs {
			j.DueS /= rate
			jobs[i] = j
		}
		p.Jobs = jobs
		ps := record(p.phaseSpec, r.d.phase(ctx, p), t, false)
		ps.report(os.Stderr)
		out = append(out, ps)
		if ok, _ := ps.passes(); ok {
			pass = rate
		} else {
			fail = rate
		}
		switch {
		case fail == 0:
			rate *= 1.25
		case pass == 0:
			rate *= 0.75
		case (fail-pass)/pass <= ladderResolution:
			return pass, out
		default:
			rate = (pass + fail) / 2
		}
	}
	return pass, out
}

// checkCacheHits requires every cache-hit job's total capacitance to be
// bitwise equal to a cold extraction of the same board.
func (r *serveRunner) checkCacheHits(ctx context.Context, jobs []sent, t *tally) error {
	for _, s := range jobs {
		if !s.st.CacheHit {
			continue
		}
		want, ok := r.cold[s.job.Board.Name]
		if !ok {
			spec := s.job.Board
			res, _, err := spec.ExtractSupervisedCtx(ctx, supervise.Policy{})
			if err != nil {
				return fmt.Errorf("cold reference extraction of %s: %w", spec.Name, err)
			}
			want = res.Network.TotalCapacitance()
			r.cold[spec.Name] = want
		}
		var err error
		if math.Float64bits(s.st.CTotal) != math.Float64bits(want) {
			err = fmt.Errorf("cache hit c_total_f %v, cold extraction %v", s.st.CTotal, want)
		}
		t.record("cache-hit job "+s.id, err)
	}
	return nil
}

// jobSpans records each finished job of phases as a serve.job span with
// its queue and run children, from the daemon's own stamps, and returns
// the jobs' queue and run times (ms).
func jobSpans(rec *recorder, phases []phaseStats) (queue, run []float64, err error) {
	for _, ps := range phases {
		for _, s := range ps.jobs {
			if s.err() != nil {
				continue
			}
			sub, start, fin, err := s.stamps()
			if err != nil {
				return nil, nil, err
			}
			queue = append(queue, ms(start.Sub(sub)))
			run = append(run, ms(fin.Sub(start)))
			top := rec.add("serve.job", s.id, -1, sub, fin)
			rec.add("serve.queue", s.id, top, sub, start)
			rec.add("serve.run", s.id, top, start, fin)
		}
	}
	return queue, run, nil
}

// burstLayers is what the traced daemon's counters and state directory
// say about one burst.
type burstLayers struct {
	hits, lookups, shards, retries, nonDurable int64
	journalKB, stateKB                         float64
	syncs                                      int64
}

// layers reads the traced daemon's counters and what it wrote to its state
// directory since its start, after a burst; syncs is the fsyncs the burst
// asked for.
func (r *serveRunner) layers(syncs int64) burstLayers {
	st, b := r.d.srv.Stats(), r.base
	journal, state := stateFS.writtenUnder(r.d.dir)
	return burstLayers{
		hits:       st.CacheHits - b.CacheHits,
		lookups:    st.CacheHits - b.CacheHits + st.CacheMisses - b.CacheMisses,
		shards:     st.Shards - b.Shards,
		retries:    st.StorageRetries - b.StorageRetries,
		nonDurable: st.NonDurable - b.NonDurable,
		journalKB:  float64(journal-r.baseJournal) / 1024,
		stateKB:    float64(state-r.baseState) / 1024,
		syncs:      syncs,
	}
}

// burstMetrics turns the traced daemon's bursts, the hooks' timings of
// them, and what the daemon's counters and state directory said after each
// into the layer metrics that break down wall_s and cpu_s.
func burstMetrics(res *result, bursts []phaseStats, lay []burstLayers, h *serveHooks) error {
	m := res.metrics
	queue, run, err := jobSpans(res.rec, bursts)
	if err != nil {
		return err
	}
	m["serve.queue_ms"] = median(queue)
	m["serve.run_ms"] = median(run)
	extract, shards := h.take()
	m["serve.extract_ms"] = median(extract)
	m["serve.shard_ms"] = median(shards)
	if len(run) > 0 {
		m["serve.overhead_ms"] = (sum(run) - sum(extract) - sum(shards)) / float64(len(run))
	}
	var hits, lookups, syncs, jobs int64
	var perBurstShards, journal, state []float64
	for i, l := range lay {
		hits, lookups, syncs = hits+l.hits, lookups+l.lookups, syncs+l.syncs
		jobs += int64(len(bursts[i].jobs))
		m["serve.storage_retries"] += float64(l.retries)
		m["serve.non_durable"] += float64(l.nonDurable)
		perBurstShards = append(perBurstShards, float64(l.shards))
		journal, state = append(journal, l.journalKB), append(state, l.stateKB)
	}
	if lookups > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	if jobs > 0 {
		m["checkpoint.syncs_per_job"] = float64(syncs) / float64(jobs)
	}
	m["serve.shards"] = median(perBurstShards)
	m["checkpoint.journal_kb"] = median(journal)
	m["checkpoint.state_kb"] = median(state)
	return nil
}

// openMetrics turns the open-loop leg's phases into the latency, shedding
// and load-generator metrics.
func (r *serveRunner) openMetrics(phases []phaseStats, res *result) error {
	m := res.metrics
	if _, _, err := jobSpans(res.rec, phases); err != nil {
		return err
	}
	byName := map[string]phaseStats{}
	var lagMax float64
	for _, ps := range phases {
		byName[ps.spec.Name] = ps
		for _, s := range ps.jobs {
			lagMax = math.Max(lagMax, ms(s.at.Sub(s.due)))
		}
	}
	m["serve.p50_ms_lo"] = median(byName["lo"].latencies)
	m["serve.p50_ms_hi"] = median(byName["hi"].latencies)
	if p, err := quantile(byName["hi"].latencies, 0.95); err == nil {
		m["serve.p95_ms_hi"] = p.Value
	}
	m["serve.shed"] = float64(r.d.srv.Stats().Rejected - r.base.Rejected)
	m["loadgen.lag_max_ms"] = lagMax
	return nil
}
