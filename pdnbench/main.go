// Command pdnbench is pdnsim's benchmark. It generates one seeded workload,
// runs it in this process, checks every output, and prints one JSON result
// line:
//
//	pdnbench --workload plane-dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation in the way. With --trace 1 it carries the per-layer
// metrics: the run alternates untraced and traced batches, times each call
// into a layer from the benchmark's side, writes the spans to a file when
// the run ends, and reports what tracing cost.
//
//	pdnbench compare --workload plane-dense
//
// runs two sets of ten fresh-process runs of run_seconds each and prints
// each end-to-end metric's median and quartiles and whether the two sets
// agree within BENCHMARK.json's bounds.
// See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Seeds. defaultSeed is the one to quote a number with; heldOutSeed is kept
// out of tuning so a claimed gain can be re-checked on inputs its author
// did not look at.
const (
	defaultSeed = 1
	heldOutSeed = 20260917
)

// maxProcs caps GOMAXPROCS (and the daemon's workers) so a larger machine
// runs the same parallelism as the 2-vCPU one the bounds were set on.
const maxProcs = 2

// buildDir is where run.sh builds and where runs write their files, relative
// to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd and perLayer are the metrics a --trace 0 and a --trace 1 run
// print, in BENCHMARK.json's order. Every workload prints every one of its
// set; a layer that does not run on a workload reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

var perLayer = []metricDef{
	{"mesh.ms", "ms", "lower"},
	{"mesh.cells", "count", "lower"},
	{"bem.ms", "ms", "lower"},
	{"bem.kernel_evals", "count", "lower"},
	{"bem.alloc_mb", "MB", "lower"},
	{"bem.retained_mb", "MB", "lower"},
	{"extract.ms", "ms", "lower"},
	{"extract.nodes", "count", "lower"},
	{"extract.alloc_mb", "MB", "lower"},
	{"extract.fallbacks", "count", "lower"},
	{"extract.repairs", "count", "lower"},
	{"diag.gate_ms", "ms", "lower"},
	{"sparam.ms", "ms", "lower"},
	{"sparam.points", "count", "lower"},
	{"sparam.us_per_point", "us", "lower"},
	{"sparam.retried_points", "count", "lower"},
	{"ssn.build_ms", "ms", "lower"},
	{"circuit.tran_ms", "ms", "lower"},
	{"circuit.steps", "count", "lower"},
	{"circuit.newton_iters", "count", "lower"},
	{"circuit.step_retries", "count", "lower"},
	{"circuit.us_per_step", "us", "lower"},
	{"fdtd.ms", "ms", "lower"},
	{"fdtd.steps", "count", "lower"},
	{"fdtd.mcells_per_s", "Mcell/s", "higher"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.extract_ms", "ms", "lower"},
	{"serve.shard_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.p50_ms_lo", "ms", "lower"},
	{"serve.p50_ms_hi", "ms", "lower"},
	{"serve.p95_ms_hi", "ms", "lower"},
	{"serve.max_rate_jobs_s", "1/s", "higher"},
	{"serve.cache_hit_ratio", "frac", "higher"},
	{"serve.shards", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.storage_retries", "count", "lower"},
	{"serve.non_durable", "count", "lower"},
	{"checkpoint.journal_kb", "KiB", "lower"},
	{"checkpoint.state_kb", "KiB", "lower"},
	{"checkpoint.syncs_per_job", "count", "lower"},
	{"loadgen.lag_max_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"failed_frac", "frac", "lower"},
}

// workloadDef names a workload and says why it exists; the same lines are
// in BENCHMARK.json.
type workloadDef struct {
	Name, Why string
	// setup generates the inputs and warms the program up; it returns the
	// runner the measured phase uses.
	setup func(ctx context.Context, cfg runConfig) (runner, error)
}

var workloads = []workloadDef{
	{"plane-large", "48x48-cell boards on the operator path: BEM fill and Toeplitz/CG-FFT reduction do nearly all the work", setupPlaneLarge},
	{"plane-dense", "22x22-cell boards keeping 130 nodes with 200-point sweeps: dense reduction, trust gate and per-point LU all show", setupPlaneDense},
	{"ssn-cosim", "SSN scenarios with ramp and CMOS drivers plus a Fig. 8 circuit-vs-FDTD leg: the only workload running circuit and fdtd", setupSSN},
	{"serve-mixed", "closed-loop bursts of 200 jobs, 12 in flight, each into a freshly started in-process daemon keeping its state in memory, half repeating pooled boards: serve and checkpoint dominate", setupServe},
}

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// runner is a set-up workload ready to measure.
type runner interface {
	// measure runs for about cfg.Seconds and fills res.
	measure(ctx context.Context, cfg runConfig, res *result) error
	// close releases what setup acquired (the daemon, its state directory).
	close()
}

// result is what one run reports.
type result struct {
	tally
	metrics map[string]float64
	rec     *recorder
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{}
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: plane-large, plane-dense, ssn-cosim or serve-mixed")
	fs.Int64Var(&cfg.Seed, "seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for re-checking claims)", defaultSeed, heldOutSeed))
	fs.Float64Var(&cfg.Seconds, "seconds", 28, "length of the measured phase (s)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(cfg.Workload)
	if !ok || fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || !(cfg.Seconds > 0) {
		fmt.Fprintf(stderr, "pdnbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.Trace = *traceFlag == 1
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	res, err := run(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "pdnbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	for _, r := range res.reasons {
		fmt.Fprintf(stderr, "pdnbench: check failed: %s\n", r)
	}
	prov := newProvenance(cfg)
	spans := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-%d.json", cfg.Workload, cfg.Seed))
	if err := res.rec.write(spans, prov); err != nil {
		fmt.Fprintf(stderr, "pdnbench: %v\n", err)
		return 1
	}
	line, err := resultLine(res, cfg.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "pdnbench: %v\n", err)
		return 1
	}
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov})
	fmt.Fprintln(stdout, string(pj))
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 5

// run sets the workload up setupRepeats times, measures, and fills in the
// metrics every workload reports.
func run(ctx context.Context, w workloadDef, cfg runConfig) (*result, error) {
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		debug.FreeOSMemory() // as before each batch
		t0 := time.Now()
		var err error
		if r, err = w.setup(ctx, cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "pdnbench: set-up %d: %.4f s\n", i+1, setups[i])
	}
	defer r.close()
	res := newResult()
	if cfg.Trace {
		res.rec = newRecorder()
	}
	if err := r.measure(ctx, cfg, res); err != nil {
		return nil, err
	}
	if res.attempted == 0 {
		return nil, errors.New("measured phase attempted nothing")
	}
	if cfg.Trace {
		res.metrics["failed_frac"] = float64(res.failed) / float64(res.attempted)
	} else {
		res.metrics["setup_s"] = median(setups)
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.metrics["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final stdout line. Exactly the declared metrics of
// the run's kind are printed; a declared end-to-end metric the workload did
// not produce is an error, since those must never read 0.
func resultLine(res *result, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !traced && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("end-to-end metric %s is %v (missing or not positive)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range res.metrics {
		if !declared(defs, name) {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// provenance says what produced a result: the machine, the measured
// process's parallelism, the toolchain, the code and the inputs.
type provenance struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
}

func newProvenance(cfg runConfig) provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       cfg.Seed,
		Workload:   cfg.Workload,
		Traced:     cfg.Trace,
		Seconds:    cfg.Seconds,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// a git work tree ("-dirty" marks uncommitted changes), else "unknown".
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
