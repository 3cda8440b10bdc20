// Command mosaicbench measures how fast MosaicSim simulates. One process
// runs one named workload for a fixed time, checks that every simulated
// output is correct, and prints its metrics as the last line of standard
// output:
//
//	mosaicbench --workload core-sgemm --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with spans recorded around every call into a layer and
// prints the per-layer metrics instead (see README.md).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics plus the context printed beside them
// (sample counts, digests, the host).
type report struct {
	metrics map[string]metric
	info    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// ctx bounds the whole run, so a runaway simulation cannot keep the
	// process past its time limit.
	ctx     context.Context
	workers int // nproc: simulation workers and client goroutines
}

// workloadsByName maps each workload to its runner.
var workloadsByName = map[string]func(runConfig, *tally) (*report, error){
	"core-sgemm":  func(c runConfig, t *tally) (*report, error) { return runSim(coreSGEMM(), c, t) },
	"spmv-mesh":   func(c runConfig, t *tally) (*report, error) { return runSim(spmvMesh(c.workers), c, t) },
	"dse-service": runDSE,
}

// runDeadline caps a run's wall time below the 180 s every run must end in.
const runDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: core-sgemm, spmv-mesh or dse-service")
	seed := flag.Int64("seed", 1, "input seed (default 1; 7919 is the held-out seed)")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloadsByName[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mosaicbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		ctx:     ctx,
		workers: runtime.NumCPU(),
	}
	t := &tally{}
	r, err := run(cfg, t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosaicbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !cfg.traced {
		r.set("ok_ratio", "ratio", 1-t.failRatio())
	}
	r.info["workload"] = *workload
	r.info["seed"] = *seed
	r.info["trace"] = *trace
	r.info["host"] = host()
	r.info["attempted"] = t.attempted
	r.info["failed"] = t.failed
	r.info["fail_ratio"] = t.failRatio()
	if len(t.reasons) > 0 {
		r.info["failures"] = t.reasons
	}
	for _, reason := range t.reasons {
		fmt.Fprintln(os.Stderr, "mosaicbench: FAIL:", reason)
	}
	emit(os.Stdout, r.info)
	emit(os.Stdout, map[string]any{
		"correct":   t.failed == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   r.metrics,
	})
}

func names() []string {
	var out []string
	for n := range workloadsByName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func emit(f *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaicbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}

// host fingerprints the machine the numbers came from.
func host() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

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

// quiesce collects the heap and returns the free memory to the OS, so
// what follows starts from the live heap alone, as in a fresh process. Two
// collections empty the runtime's pools (a pooled buffer survives one).
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS quiesces and restarts the kernel's peak-RSS count (VmHWM),
// so peakRSSMB read at the end of the measured window is the window's
// peak, not set-up's. Where the kernel does not allow the restart, the
// peak covers the whole process.
func resetPeakRSS() {
	quiesce()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// spansDir is where a traced run writes its spans, under the checkout's
// build directory.
var spansDir = filepath.Join(".bench_build", "spans")

// writeSpans writes a traced run's spans, with their self times, as JSON.
func writeSpans(workload string, tr *tracer) error {
	dir := spansDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	rows := make([]out, len(tr.spans))
	for i, s := range tr.spans {
		rows[i] = out{s, self[s.ID]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), b, 0o644)
}
