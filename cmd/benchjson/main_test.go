package main

import (
	"io"
	"strings"
	"testing"
)

// transcript is canned `go test -bench -benchmem` output from two packages
// at GOMAXPROCS=2, including a sub-benchmark whose name contains '-'.
const transcript = `goos: linux
goarch: amd64
pkg: pdnsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig7SParams-2   	       3	 9986151 ns/op	 1290672 B/op	      17 allocs/op	         2.563 RMS_%
BenchmarkExtractLargeMesh/grid-32x32-2         	       1	123456789 ns/op	        19.00 dense_over_cg_x
PASS
ok  	pdnsim	12.345s
goos: linux
goarch: amd64
pkg: pdnsim/internal/mat
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLU400-2   	       3	  41234567 ns/op	 1290240 B/op	       3 allocs/op
PASS
ok  	pdnsim/internal/mat	1.234s
`

func TestParseRunTranscript(t *testing.T) {
	var echo strings.Builder
	run, err := parseRun("test", strings.NewReader(transcript), &echo)
	if err != nil {
		t.Fatalf("parseRun: %v", err)
	}
	if echo.String() != transcript {
		t.Fatalf("input not passed through verbatim:\n%s", echo.String())
	}
	if run.GOMAXPROCS != 2 {
		t.Fatalf("run GOMAXPROCS = %d, want 2 from the -2 suffixes", run.GOMAXPROCS)
	}
	if run.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q, want the cpu: header", run.CPU)
	}
	want := []struct {
		name string
		ns   float64
	}{
		{"Fig7SParams", 9986151},
		{"ExtractLargeMesh/grid-32x32", 123456789},
		{"LU400", 41234567},
	}
	if len(run.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(run.Benchmarks), len(want), run.Benchmarks)
	}
	for i, w := range want {
		b := run.Benchmarks[i]
		if b.Name != w.name || b.NsPerOp != w.ns {
			t.Errorf("benchmark %d = %q %.0f ns/op, want %q %.0f ns/op", i, b.Name, b.NsPerOp, w.name, w.ns)
		}
	}
	fig7 := run.Benchmarks[0]
	if fig7.Iterations != 3 || fig7.BytesPerOp != 1290672 || fig7.AllocsPerOp != 17 || fig7.Metrics["RMS_%"] != 2.563 {
		t.Errorf("Fig7SParams fields = %+v", fig7)
	}
	if got := run.Benchmarks[1].Metrics["dense_over_cg_x"]; got != 19 {
		t.Errorf("custom metric dense_over_cg_x = %g, want 19", got)
	}
}

// TestParseRunProcs covers the GOMAXPROCS=1 form (no suffix) and a -cpu
// list, whose lines disagree and record 0.
func TestParseRunProcs(t *testing.T) {
	run, err := parseRun("one", strings.NewReader("BenchmarkLU400 \t 3\t 100 ns/op\n"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if run.GOMAXPROCS != 1 || len(run.Benchmarks) != 1 || run.Benchmarks[0].Name != "LU400" {
		t.Fatalf("GOMAXPROCS=1 run = %+v", run)
	}
	run, err = parseRun("mixed", strings.NewReader("BenchmarkLU400 \t 3\t 100 ns/op\nBenchmarkLU400-4 \t 3\t 40 ns/op\n"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if run.GOMAXPROCS != 0 || run.Benchmarks[1].Name != "LU400" {
		t.Fatalf("-cpu 1,4 run = %+v", run)
	}
}
