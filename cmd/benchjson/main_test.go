package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: mosaicsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStepCoherent64Sequential-4   	       3	 664645336 ns/op	     28377 sim-cycles	 1024 B/op	 12 allocs/op
BenchmarkSweepReplay-4                	       2	 512000000 ns/op	        41.5 speedup
PASS
ok  	mosaicsim	22.563s
`

func TestParseRecordsHost(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("CPU = %q", rep.CPU)
	}
	if rep.GOMAXPROCS != 4 {
		t.Errorf("GOMAXPROCS = %d, want 4 (the -4 name suffix)", rep.GOMAXPROCS)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkStepCoherent64Sequential-4" || b.Iterations != 3 || b.NsPerOp != 664645336 ||
		b.BytesPerOp != 1024 || b.AllocsOp != 12 || b.Metrics["sim-cycles"] != 28377 {
		t.Errorf("first benchmark parsed as %+v", b)
	}
	if rep.Benchmarks[1].Metrics["speedup"] != 41.5 {
		t.Errorf("speedup metric = %v", rep.Benchmarks[1].Metrics)
	}
}

func TestParseWithoutSuffixIsOneProc(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX 	10	 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 1 || rep.CPU != "" {
		t.Errorf("GOMAXPROCS = %d, CPU = %q; want 1 and empty", rep.GOMAXPROCS, rep.CPU)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("cpu: x\nPASS\n")); err == nil {
		t.Error("want an error for output without benchmark lines")
	}
}

func TestHostDesc(t *testing.T) {
	if got := hostDesc(Report{}); got != "core count not recorded" {
		t.Errorf("hostDesc(old report) = %q", got)
	}
	if got := hostDesc(Report{NumCPU: 8, GOMAXPROCS: 8, CPU: "EPYC"}); got != "8 CPUs, GOMAXPROCS 8 (EPYC)" {
		t.Errorf("hostDesc = %q", got)
	}
}
