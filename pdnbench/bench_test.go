package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pdnsim/internal/core"
	"pdnsim/internal/ssn"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	cfg := runConfig{Seed: 7, Seconds: 20}
	serveA, errA := genServe(7, servePhases(cfg))
	serveB, errB := genServe(7, servePhases(cfg))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for name, pair := range map[string][2]any{
		"plane-large": {genPlaneLarge(7), genPlaneLarge(7)},
		"plane-dense": {genPlaneDense(7), genPlaneDense(7)},
		"ssn-cosim":   {genSSN(7), genSSN(7)},
		"serve-mixed": {serveA, serveB},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
	}
}

// size is what a seed must not move: the work's shape.
type size struct {
	Cells, Nodes, Points []int
	Chips, Mesh          []int
	SSNWindow            [2]float64
	Phases               []phaseSpec
	Pool, Sweep          int
}

func planeSize(bs []planeBoard) size {
	var s size
	for _, b := range bs {
		s.Cells = append(s.Cells, b.Spec.MeshNx*b.Spec.MeshNy)
		s.Nodes = append(s.Nodes, len(b.Spec.Ports)+b.Spec.ExtraNodes)
		s.Points = append(s.Points, len(b.Freqs))
	}
	return s
}

func ssnSize(in ssnInputs) size {
	var s size
	for _, sc := range in.Scenarios {
		s.Chips = append(s.Chips, len(sc.Chips), len(sc.Decaps))
		s.Mesh = append(s.Mesh, sc.Board.MeshNx, sc.Board.MeshNy, sc.Board.ExtraNodes)
		for _, c := range sc.Chips {
			if c.Kind == ssn.CMOSDriver { // the Newton-heavy chip is sized identically
				s.Chips = append(s.Chips, c.Switching, c.VddPins)
			}
		}
	}
	s.Mesh = append(s.Mesh, in.Fig8.Spec.MeshNx, in.Fig8.Spec.ExtraNodes, len(in.Fig8.Spec.Ports))
	s.SSNWindow = [2]float64{ssnDt, ssnTstop}
	return s
}

func serveSize(in serveInputs) size {
	s := size{Pool: len(in.Pool), Sweep: serveSweep().NF}
	for _, p := range in.Phases {
		s.Phases = append(s.Phases, p.phaseSpec)
		if len(p.Jobs) != p.N {
			s.Phases = append(s.Phases, phaseSpec{Name: "job count mismatch"})
		}
	}
	for _, j := range in.Pool {
		s.Cells = append(s.Cells, j.Board.MeshNx*j.Board.MeshNy)
	}
	return s
}

func TestSeedMovesInputsNotSizes(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := runConfig{Seconds: 20, Trace: trace}
		s1, err1 := genServe(1, servePhases(cfg))
		s2, err2 := genServe(2, servePhases(cfg))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if reflect.DeepEqual(s1, s2) {
			t.Errorf("serve-mixed: seeds 1 and 2 generated the same traffic")
		}
		if a, b := serveSize(s1), serveSize(s2); !reflect.DeepEqual(a, b) {
			t.Errorf("serve-mixed (trace %v): sizes differ across seeds: %+v vs %+v", trace, a, b)
		}
	}
	cases := []struct {
		name   string
		a, b   any
		sa, sb size
	}{
		{"plane-large", genPlaneLarge(1), genPlaneLarge(2), planeSize(genPlaneLarge(1)), planeSize(genPlaneLarge(2))},
		{"plane-dense", genPlaneDense(1), genPlaneDense(2), planeSize(genPlaneDense(1)), planeSize(genPlaneDense(2))},
		{"ssn-cosim", genSSN(1), genSSN(2), ssnSize(genSSN(1)), ssnSize(genSSN(2))},
	}
	for _, c := range cases {
		if reflect.DeepEqual(c.a, c.b) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", c.name)
		}
		if !reflect.DeepEqual(c.sa, c.sb) {
			t.Errorf("%s: sizes differ across seeds: %+v vs %+v", c.name, c.sa, c.sb)
		}
	}
	if s := planeSize(genPlaneLarge(3)); s.Cells[0] != 2304 || s.Nodes[0] != 11 || s.Points[0] != largePoints {
		t.Errorf("plane-large size %+v, want 2304 cells, 11 nodes", s)
	}
	if s := planeSize(genPlaneDense(3)); s.Cells[0] != 484 || s.Nodes[0] != 130 || s.Points[0] != 200 {
		t.Errorf("plane-dense size %+v, want 484 cells, 130 nodes, 200 points", s)
	}
}

func readDecl(t *testing.T) benchFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMetricsMatchDeclaration(t *testing.T) {
	d := readDecl(t)
	var e2e []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ from BENCHMARK.json:\n code %+v\n json %+v", endToEnd, e2e)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n code %+v\n json %+v", perLayer, d.PerLayer)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		def, ok := findWorkload(w.Name)
		if !ok || def.Why != w.Why {
			t.Errorf("workload %s: declaration and code disagree (%q vs %q)", w.Name, w.Why, def.Why)
		}
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("workloads %s, code has %s", got, workloadNames())
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

// TestRunEmitsDeclaredNames runs plane-dense and serve-mixed briefly in both
// modes: every printed name is declared, every check passes, and so does
// each traced run's bitwise traced/untraced equivalence check.
func TestRunEmitsDeclaredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	t.Chdir(t.TempDir()) // state directories and spans land under .bench_build
	for _, c := range []struct{ workload, seconds, trace string }{
		{"plane-dense", "0.1", "0"},
		{"plane-dense", "0.1", "1"},
		{"serve-mixed", "1", "0"},
		{"serve-mixed", "1", "1"},
	} {
		trace := c.trace
		var out, errOut bytes.Buffer
		code := benchMain([]string{"--workload", c.workload, "--seed", "3", "--seconds", c.seconds,
			"--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s trace %s: exit %d: %s", c.workload, trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || len(r.Metrics) != len(defs) {
			t.Errorf("%s trace %s: %+v\n%s", c.workload, trace, r, errOut.String())
		}
		for name, m := range r.Metrics {
			if !metricName.MatchString(name) || !declared(defs, name) {
				t.Errorf("%s trace %s: undeclared metric %q", c.workload, trace, name)
			}
			if trace == "0" && !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", c.workload, name, m.Value)
			}
		}
		if c.workload == "serve-mixed" && trace == "1" {
			// The daemon's state lives in memFS: the cache must be read
			// back from it, and the journal and flushes must be counted.
			for _, name := range []string{"serve.cache_hit_ratio", "checkpoint.journal_kb", "checkpoint.state_kb", "checkpoint.syncs_per_job"} {
				if !(r.Metrics[name].Value > 0) {
					t.Errorf("serve-mixed traced: %s = %v", name, r.Metrics[name].Value)
				}
			}
		}
	}
}

// TestMemFS checks the in-memory state filesystem against the os semantics
// the checkpoint package relies on: appends, staged write and rename, a
// handle that outlives its path, and not-exist errors os.IsNotExist knows.
func TestMemFS(t *testing.T) {
	m := &memFS{files: map[string]*memData{}, written: map[string]int64{}}
	dir := filepath.Join("state", "d")
	j := filepath.Join(dir, journalFile)
	for _, rec := range []string{"ab", "cd"} {
		f, err := m.OpenFile(j, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(dir, "entry.tmp")
	f, err := m.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("xyz"))
	f.Sync()
	if err := m.Rename(tmp, filepath.Join(dir, "entry")); err != nil {
		t.Fatal(err)
	}
	m.SyncDir(dir)
	f.Write([]byte("!")) // the handle still writes the renamed file's data
	if b, err := m.ReadFile(filepath.Join(dir, "entry")); err != nil || string(b) != "xyz!" {
		t.Errorf("renamed file reads %q, %v", b, err)
	}
	if b, _ := m.ReadFile(j); string(b) != "abcd" {
		t.Errorf("journal reads %q", b)
	}
	r, err := m.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := io.ReadAll(r); err != nil || string(b) != "abcd" {
		t.Errorf("journal read through a handle: %q, %v", b, err)
	}
	if fi, err := m.Stat(j); err != nil || fi.Size() != 4 {
		t.Errorf("journal stat: %v, %v", fi, err)
	}
	for _, err := range []error{
		func() error { _, err := m.ReadFile(tmp); return err }(),
		func() error { _, err := m.Open(tmp); return err }(),
		func() error { _, err := m.Stat(tmp); return err }(),
		m.Remove(tmp),
	} {
		if !os.IsNotExist(err) {
			t.Errorf("missing file: %v is not a not-exist error", err)
		}
	}
	if jn, other := m.writtenUnder(dir); jn != 4 || other != 4 {
		t.Errorf("written under %s: journal %d, other %d; want 4, 4", dir, jn, other)
	}
	if n := m.syncCount(); n != 2 {
		t.Errorf("syncs %d, want 2", n)
	}
	m.drop(dir)
	if len(m.files) != 0 || len(m.written) != 0 {
		t.Errorf("drop left %v, %v", m.files, m.written)
	}
}

func TestQuantileCountsAndRefuses(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190.05, true},
		{182, 0.95, 172.95, true}, // s[171..172]: s[172..181] lie beyond
		{181, 0.95, 0, false},     // exactly s[171]: nine beyond
		{92, 0.9, 82.9, true},
		{91, 0.9, 0, false},
		{1, 0.5, 1, true},
		{3, 0.5, 2, true},
	} {
		p, err := quantile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("n=%d q=%g: err %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && (p.N != c.n || mathAbs(p.Value-c.want) > 1e-9) {
			t.Errorf("n=%d q=%g: got %+v, want value %g with N=%d", c.n, c.q, p, c.want, c.n)
		}
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("median of no samples accepted")
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestQuartilesMatchPython pins quartiles to values printed by Python's
// statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestCorruptedNetworkCounted breaks a real extracted network three ways
// and requires each to be counted as a failed operation, and the result
// line to say so.
func TestCorruptedNetworkCounted(t *testing.T) {
	spec := core.BoardSpec{
		Name: "small", Shape: core.ShapeSpec{Type: "rect", W: 30, H: 24},
		PlaneSepMM: 0.3, EpsR: 4.3, SheetRes: 0.6e-3, MeshNx: 8, MeshNy: 6, ExtraNodes: 4,
		Ports: []core.PortSpec{{Name: "A", X: 5, Y: 5}, {Name: "B", X: 24, Y: 18}},
	}
	b := &planeBatch{boards: []planeBoard{{Spec: spec, Freqs: []float64{1e8, 2e8, 3e8}}}, checkCap: true}
	ctx := context.Background()
	if tl := b.check(b.run(ctx, nil, nil)); tl.failed != 0 || tl.attempted != 1 {
		t.Fatalf("healthy network: %+v", tl)
	}
	corrupt := map[string]func(o *boardOut){
		"asymmetric C": func(o *boardOut) { o.nw.C.Add(0, 1, 1e-3*o.nw.C.At(0, 0)) },
		"indefinite C": func(o *boardOut) { o.nw.C.Add(1, 1, -10*o.nw.C.At(1, 1)) },
		"Γ·1 ≠ 0":      func(o *boardOut) { o.nw.Gamma.Add(0, 0, 1e-3*o.nw.Gamma.At(0, 0)) },
	}
	for name, f := range corrupt {
		out := b.run(ctx, nil, nil).(*planeOut)
		f(&out.boards[0])
		res := newResult()
		res.merge(b.check(out))
		if res.failed != 1 || res.attempted != 1 {
			t.Errorf("%s: tally %+v, want 1 failed of 1", name, res.tally)
			continue
		}
		res.metrics["failed_frac"] = float64(res.failed) / float64(res.attempted)
		line, err := resultLine(res, true)
		if err != nil {
			t.Fatal(err)
		}
		var r struct {
			Correct bool
			Failed  int
			Metrics map[string]metricValue
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed != 1 || r.Metrics["failed_frac"].Value != 1 {
			t.Errorf("%s: result line %s", name, line)
		}
	}
}
