// Command benchjson converts `go test -bench` text output into a structured
// JSON report, so benchmark runs can be archived and diffed across commits
// (scripts/bench.sh drives it and CI uploads the result as an artifact).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_2026-08-07.json
//
// It reads benchmark output on stdin (or -in file) and writes a JSON document
// recording, per benchmark: iterations, ns/op, B/op, allocs/op, and any
// custom metrics (e.g. the experiment headline values the harness reports
// with b.ReportMetric). The report also records the host the numbers came
// from: its CPU count, the GOMAXPROCS the benchmarks ran at (the testing
// package's "-N" name suffix, absent at 1), and the `cpu:` line of the go
// test output.
//
// Compare mode diffs two reports instead of converting:
//
//	benchjson -old BENCH_2026-08-09.json -new bench.json
//
// It checks every benchmark in -new whose name matches -match (default
// "Sweep|Replay", the sweep/replay regression gate CI runs) against the same
// benchmark in -old, and exits 1 if ns/op grew by more than -max-regress
// (default 0.20 = 20%) or a reported "speedup" metric shrank by more than the
// same fraction. GOMAXPROCS name suffixes ("-8") are stripped before matching
// so reports from hosts with different core counts compare; the two hosts'
// core counts are printed, and a mismatch is flagged as a note (the
// thresholds stay the same).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp int64              `json:"bytes_per_op,omitempty"`
	AllocsOp   int64              `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document. Host fields are zero in reports written
// before they were recorded.
type Report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "read benchmark output from this file instead of stdin")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	oldPath := flag.String("old", "", "compare mode: baseline JSON report")
	newPath := flag.String("new", "", "compare mode: candidate JSON report")
	match := flag.String("match", "Sweep|Replay", "compare mode: regex selecting benchmarks to gate")
	maxRegress := flag.Float64("max-regress", 0.20, "compare mode: allowed fractional regression before failing")
	flag.Parse()

	if *oldPath != "" || *newPath != "" {
		if *oldPath == "" || *newPath == "" {
			fatal(fmt.Errorf("compare mode needs both -old and -new"))
		}
		if err := compare(*oldPath, *newPath, *match, *maxRegress); err != nil {
			fatal(err)
		}
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	rep, err := parse(r)
	if err != nil {
		fatal(err)
	}
	rep.Date = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOOS, rep.GOARCH = runtime.GOOS, runtime.GOARCH
	rep.NumCPU = runtime.NumCPU()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// parse reads `go test -bench` output: the benchmark lines, the `cpu:`
// header line, and the GOMAXPROCS the benchmarks ran at, read from the
// name suffix the testing package appends when it is above 1.
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		if res, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("no benchmark lines found in input")
	}
	rep.GOMAXPROCS = 1
	if name := rep.Benchmarks[0].Name; baseName(name) != name {
		rep.GOMAXPROCS, _ = strconv.Atoi(name[len(baseName(name))+1:])
	}
	return rep, nil
}

// parseLine decodes one `Benchmark... <iters> <value> <unit> ...` line. The
// testing package prints value/unit pairs: ns/op, then custom metrics, then
// -benchmem's B/op and allocs/op.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = int64(val)
		case "allocs/op":
			res.AllocsOp = int64(val)
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	return res, true
}

// loadReport reads one archived JSON report.
func loadReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// baseName strips the trailing -<GOMAXPROCS> suffix the testing package
// appends to benchmark names, so reports from different hosts key equally.
func baseName(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compare gates the candidate report against the baseline: for every selected
// benchmark present in both, ns/op may grow and any "speedup" metric may
// shrink by at most maxRegress. It returns an error (non-zero exit) on the
// first rule being violated, naming every offender.
func compare(oldPath, newPath, match string, maxRegress float64) error {
	re, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("bad -match regex: %w", err)
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: hosts: old %s, new %s\n", hostDesc(oldRep), hostDesc(newRep))
	if oldRep.NumCPU != newRep.NumCPU || oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Fprintln(os.Stderr, "benchjson: note: the reports come from hosts with different core counts; parallel benchmarks compare across them only roughly")
	}
	baseline := map[string]Result{}
	for _, r := range oldRep.Benchmarks {
		baseline[baseName(r.Name)] = r
	}
	var checked int
	var failures []string
	for _, n := range newRep.Benchmarks {
		name := baseName(n.Name)
		if !re.MatchString(name) {
			continue
		}
		o, ok := baseline[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s has no baseline in %s (new benchmark, skipped)\n", name, oldPath)
			continue
		}
		checked++
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.4g -> %.4g (+%.1f%%, limit +%.0f%%)",
				name, o.NsPerOp, n.NsPerOp, 100*(n.NsPerOp/o.NsPerOp-1), 100*maxRegress))
		}
		if osp, ok := o.Metrics["speedup"]; ok && osp > 0 {
			nsp := n.Metrics["speedup"]
			if nsp < osp*(1-maxRegress) {
				failures = append(failures, fmt.Sprintf("%s: speedup %.4g -> %.4g (-%.1f%%, limit -%.0f%%)",
					name, osp, nsp, 100*(1-nsp/osp), 100*maxRegress))
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s ns/op %.4g -> %.4g", name, o.NsPerOp, n.NsPerOp)
		if s, ok := o.Metrics["speedup"]; ok {
			fmt.Fprintf(os.Stderr, ", speedup %.4g -> %.4g", s, n.Metrics["speedup"])
		}
		fmt.Fprintln(os.Stderr)
	}
	if checked == 0 {
		return fmt.Errorf("no benchmark matching %q present in both reports", match)
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression beyond %.0f%% in %d benchmark(s):\n  %s",
			100*maxRegress, len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within the %.0f%% regression budget\n", checked, 100*maxRegress)
	return nil
}

// hostDesc renders a report's host fields for compare mode.
func hostDesc(r Report) string {
	if r.NumCPU == 0 {
		return "core count not recorded"
	}
	desc := fmt.Sprintf("%d CPUs, GOMAXPROCS %d", r.NumCPU, r.GOMAXPROCS)
	if r.CPU != "" {
		desc += " (" + r.CPU + ")"
	}
	return desc
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
