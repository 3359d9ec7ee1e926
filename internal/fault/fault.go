// Package fault is a deterministic, seed-driven storage-fault injector for
// the daemon's durability layer. It exists because the failure modes that
// matter — ENOSPC on a journal append, EIO from an fsync, a torn write that
// leaves half a record on disk, latency spikes from a sick volume — cannot
// be produced on demand by real hardware, yet the serve daemon's degraded-
// durability state machine and the checkpoint envelope's atomic-write
// discipline are only trustworthy if they are exercised under exactly those
// faults, repeatably.
//
// The model is a named fault-point registry: every durable filesystem
// operation that routes through the internal/checkpoint FS seam is
// classified into a point name of the form "<class>.<op>" — the class from
// the path (journal, checkpoint, cache…), the op from the
// operation (write, sync, rename, dirsync…). A Schedule is a parsed list of
// rules, each binding a point pattern to a fault mode with optional
// triggers: fire only after the first N matching operations (after=N), at
// most N times (times=N), or with seeded probability p. Because the RNG is
// seeded and rule counters are deterministic, a schedule replays the same
// fault sequence for the same operation sequence — which is what lets a
// chaos test assert invariants instead of flaking.
//
// Production pays nothing for any of this: the injector only acts when
// installed via checkpoint.SetFS (one atomic pointer load + nil check on the
// hot path), which only tests and cmd/pdnserve's -fault-schedule flag do.
package fault

import (
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdnsim/internal/simerr"
)

// Mode is a fault flavour.
type Mode string

const (
	// EIO fails the operation with a wrapped syscall.EIO.
	EIO Mode = "eio"
	// ENOSPC fails the operation with a wrapped syscall.ENOSPC.
	ENOSPC Mode = "enospc"
	// Torn applies to writes: half the bytes reach the file, then the write
	// fails with EIO — the on-disk state a crash mid-write or a filled disk
	// leaves behind. The file handle is additionally poisoned so its next
	// Truncate fails once, defeating the journal's tail self-heal the way a
	// genuinely sick disk would and forcing the torn tail to persist.
	Torn Mode = "torn"
	// PartialFsync applies to syncs: the data reached the file (the write
	// succeeded) but the fsync reports EIO, so the caller cannot claim
	// durability for bytes that are in fact in the page cache.
	PartialFsync Mode = "partialfsync"
	// Latency delays the operation by the rule's delay (default
	// DefaultLatency), then lets it proceed.
	Latency Mode = "latency"
)

// DefaultLatency is the delay of a latency rule that names none. 2 ms is
// enough to shuffle goroutine interleavings and trip coalescing paths
// without slowing a test suite noticeably.
const DefaultLatency = 2 * time.Millisecond

// DefaultSeed seeds schedules that name none, so a bare spec is still fully
// deterministic.
const DefaultSeed = 1

// Rule binds a fault point pattern to a mode. Patterns match a point name
// exactly, or by prefix with a trailing "*" ("journal.*", or bare "*" for
// everything).
type Rule struct {
	Point string
	Mode  Mode
	// P is the per-match injection probability; 0 means always (1.0).
	P float64
	// After skips the first After matching operations.
	After int
	// Times bounds total injections by this rule; 0 means unlimited. A
	// bounded rule exhausts itself, which is how a schedule models a fault
	// that clears (and how the smoke test observes re-arm without a toggle).
	Times int
	// Delay is the latency-mode delay; zero selects DefaultLatency.
	Delay time.Duration
}

// Schedule is a parsed fault schedule: a seed and an ordered rule list (the
// first matching rule that decides to fire wins).
type Schedule struct {
	Seed  int64
	Rules []Rule
}

// ParseSchedule parses a schedule spec. Grammar, by example:
//
//	seed=7;journal.append:eio{times=3};checkpoint.*:latency{delay=5ms,p=0.5}
//
// Entries are ';'-separated. An optional leading seed=N seeds the RNG
// (DefaultSeed otherwise). Each rule is point:mode with an optional
// {k=v,...} parameter block: p= (probability), times=, after=, delay= (Go
// duration, latency mode). Point names are "<class>.<op>" as classified by
// the FS wrapper, a trailing-* prefix pattern, or one of the registry
// aliases (Aliases) naming the durability-relevant op of a logical site —
// e.g. journal.append is the append path's fsync.
func ParseSchedule(spec string) (*Schedule, error) {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("fault: schedule", format, args...)
	}
	s := &Schedule{Seed: DefaultSeed}
	parts := strings.Split(spec, ";")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			if i != 0 {
				return nil, bad("seed= must be the first entry, found it at entry %d", i+1)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, bad("bad seed %q: %v", v, err)
			}
			s.Seed = n
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		s.Rules = append(s.Rules, r)
	}
	if len(s.Rules) == 0 {
		return nil, bad("no rules in %q", spec)
	}
	return s, nil
}

// Aliases maps the registry's logical fault-point names to the
// "<class>.<op>" point the FS wrapper actually reports for that site's
// durability-critical operation. They exist so schedules (and docs) can name
// the site, not the mechanics.
var Aliases = map[string]string{
	"journal.append":        "journal.sync",         // Append = write+fsync on jobs.journal; the fsync is the durability barrier
	"journal.rewrite":       "journal.rewrite.sync", // Rewrite stages jobs.journal.tmp; classified separately from appends
	"checkpoint.save":       "checkpoint.write",
	"checkpoint.save.fsync": "checkpoint.sync",
	"cache.put":             "cache.write",
}

// parseRule parses one point:mode{params} entry.
func parseRule(part string) (Rule, error) {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("fault: schedule", format, args...)
	}
	var r Rule
	body := part
	var params string
	if i := strings.IndexByte(part, '{'); i >= 0 {
		if !strings.HasSuffix(part, "}") {
			return r, bad("unterminated parameter block in %q", part)
		}
		body, params = part[:i], part[i+1:len(part)-1]
	}
	point, mode, ok := strings.Cut(body, ":")
	if !ok {
		return r, bad("rule %q is not point:mode", part)
	}
	point = strings.TrimSpace(point)
	if a, ok := Aliases[point]; ok {
		point = a
	}
	if point == "" {
		return r, bad("empty fault point in %q", part)
	}
	r.Point = point
	switch Mode(strings.TrimSpace(mode)) {
	case EIO, ENOSPC, Torn, PartialFsync, Latency:
		r.Mode = Mode(strings.TrimSpace(mode))
	default:
		return r, bad("unknown fault mode %q (want eio, enospc, torn, partialfsync or latency)", mode)
	}
	if params == "" {
		return r, nil
	}
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return r, bad("parameter %q is not k=v", kv)
		}
		switch k {
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p <= 0 || p > 1 {
				return r, bad("p=%q must be a probability in (0,1]", v)
			}
			r.P = p
		case "times":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return r, bad("times=%q must be a positive count", v)
			}
			r.Times = n
		case "after":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return r, bad("after=%q must be a non-negative count", v)
			}
			r.After = n
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return r, bad("delay=%q must be a positive duration", v)
			}
			r.Delay = d
		default:
			return r, bad("unknown parameter %q", k)
		}
	}
	return r, nil
}

// Decision is the injector's verdict for one operation.
type Decision struct {
	// Err, when non-nil, is the error the operation must fail with (for
	// Torn, after writing half the bytes; for PartialFsync, after the data
	// already reached the file).
	Err error
	// Torn instructs a write to persist the first half of its bytes before
	// failing, and poisons the handle's next Truncate.
	Torn bool
	// Delay, when positive, delays the operation before it proceeds.
	Delay time.Duration
}

// ruleState pairs a rule with its deterministic trigger counters.
type ruleState struct {
	Rule
	seen  int // matching operations observed (drives After)
	fired int // injections performed (drives Times)
}

// Injector evaluates a Schedule against the operation stream. Safe for
// concurrent use; determinism holds per operation sequence (concurrent
// writers interleave operations, so tests that assert exact fault positions
// serialise their I/O).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []ruleState
	// counts tallies injections by point name, for tests and the
	// -fault-schedule exit report.
	counts map[string]int
	total  int
}

// NewInjector builds an injector for the schedule.
func NewInjector(s *Schedule) *Injector {
	in := &Injector{
		rng:    rand.New(rand.NewSource(s.Seed)),
		counts: make(map[string]int),
	}
	for _, r := range s.Rules {
		in.rules = append(in.rules, ruleState{Rule: r})
	}
	return in
}

// Decide evaluates the operation at fault point (with path and op for the
// error text) against the schedule. The zero Decision means proceed
// normally.
func (in *Injector) Decide(point, path, op string) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.rules {
		r := &in.rules[i]
		if !matchPoint(r.Point, point) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		if r.P > 0 && r.P < 1 && in.rng.Float64() >= r.P {
			continue
		}
		r.fired++
		in.counts[point]++
		in.total++
		return in.decisionFor(r, point, path, op)
	}
	return Decision{}
}

// decisionFor renders one firing rule as a Decision. Caller holds in.mu.
func (in *Injector) decisionFor(r *ruleState, point, path, op string) Decision {
	inject := func(errno error) error {
		return &fs.PathError{Op: op, Path: path,
			Err: fmt.Errorf("fault injected at %s: %w", point, errno)}
	}
	switch r.Mode {
	case EIO:
		return Decision{Err: inject(syscall.EIO)}
	case ENOSPC:
		return Decision{Err: inject(syscall.ENOSPC)}
	case Torn:
		return Decision{Err: inject(syscall.EIO), Torn: true}
	case PartialFsync:
		return Decision{Err: inject(syscall.EIO)}
	case Latency:
		d := r.Delay
		if d <= 0 {
			d = DefaultLatency
		}
		return Decision{Delay: d}
	}
	return Decision{}
}

// Injected returns a snapshot of the per-point injection counts.
func (in *Injector) Injected() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns how many faults have been injected so far.
func (in *Injector) Total() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// matchPoint matches a rule pattern against a point name: exact, "*", or
// trailing-* prefix.
func matchPoint(pattern, point string) bool {
	if pattern == "*" || pattern == point {
		return true
	}
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(point, p)
	}
	return false
}
