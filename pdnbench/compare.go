package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the comparison and the tests
// read.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runLine is a result line as printed by benchMain.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// compareRuns is how many runs make one set; declFile is the benchmark's
// declaration, relative to the checkout root compare runs from.
const (
	compareRuns = 10
	declFile    = "BENCHMARK.json"
)

// compareMain runs two sets of compareRuns untraced runs per workload, each
// run a fresh process on its own seed and run_seconds long, and prints every
// end-to-end metric's median and quartiles per set, its spread (IQR over
// median) against a third of its bound, and whether the second set's median
// is within the bound of the first's. setup_s is held to the same rules as
// the others. The sets are interleaved, seed k of set 1 then seed k of set
// 2, so a drift in the machine's speed over the runs falls on both alike.
// It exits 1 when any run fails its checks or any test misses.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "one workload (default: all)")
	seed0 := fs.Int64("seed", defaultSeed, "first seed; run k of each set uses seed+k")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	blob, err := os.ReadFile(declFile)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", declFile, err)
		return 2
	}
	if bf.RunSeconds <= 0 {
		fmt.Fprintf(stderr, "compare: %s: run_seconds must be positive\n", declFile)
		return 2
	}
	seconds := float64(bf.RunSeconds)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	ok := true
	for _, w := range bf.Workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for k := 0; k < compareRuns; k++ {
			seed := *seed0 + int64(k)
			for s := range sets {
				line, err := runOnce(self, w.Name, seed, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "compare: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if !line.Correct {
					fmt.Fprintf(stdout, "%s set %d seed %d: %d of %d operations failed their checks\n",
						w.Name, s+1, seed, line.Failed, line.Attempted)
					ok = false
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "%s (%d runs per set, seeds %d..%d, %g s)\n", w.Name, compareRuns, *seed0, *seed0+compareRuns-1, seconds)
		fmt.Fprintf(stdout, "  %-16s %-7s %3s %12s %12s %12s %8s  %s\n",
			"metric", "unit", "set", "q1", "median", "q3", "spread", "verdict")
		for _, d := range bf.EndToEnd {
			var verdict []string
			var med [2]float64
			var spread [2]float64
			var q [2][3]float64
			for s := range sets {
				q[s][0], q[s][1], q[s][2] = quartiles(sets[s][d.Name])
				med[s] = q[s][1]
				spread[s] = (q[s][2] - q[s][0]) / med[s]
				if !(spread[s] <= d.Bound) {
					verdict = append(verdict, fmt.Sprintf("set %d spread over bound %g", s+1, d.Bound))
				} else if !(spread[s] < d.Bound/3) {
					verdict = append(verdict, fmt.Sprintf("set %d spread over a third of the bound", s+1))
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if d.Better == "higher" {
				worse = -worse
			}
			if !(worse <= d.Bound) {
				verdict = append(verdict, fmt.Sprintf("set 2 worse by %.1f%% > bound %g", 100*worse, d.Bound))
			}
			v := "ok"
			if len(verdict) > 0 {
				v = strings.Join(verdict, "; ")
				ok = false
			}
			for s := range sets {
				if s == 1 {
					v = ""
				}
				fmt.Fprintf(stdout, "  %-16s %-7s %3d %12.6g %12.6g %12.6g %8.4f  %s\n",
					d.Name, d.Unit, s+1, q[s][0], q[s][1], q[s][2], spread[s], v)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one untraced benchmark process and parses its last line.
func runOnce(self, workload string, seed int64, seconds float64) (runLine, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runLine{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rl runLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		return runLine{}, fmt.Errorf("result line: %w", err)
	}
	return rl, nil
}
