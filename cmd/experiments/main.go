// Command experiments regenerates the paper's tables and figures on
// MosaicSim-Go (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	experiments [-scale tiny|small|large] [-run id[,id...]|all] [-jobs N] [-timeout D]
//
// Experiment IDs: fig1 tab1 tab2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 storage.
//
// Independent simulations fan out across -jobs workers (default: all CPU
// cores). Results are collected by index, so stdout is byte-identical for
// every -jobs value; per-experiment timing goes to stderr. -timeout bounds
// the whole regeneration's wall-clock time: expiry aborts in-flight
// simulations and abandons queued legs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mosaicsim/internal/experiments"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/parallel"
	"mosaicsim/internal/workloads"
)

// main delegates to realMain so deferred cleanups (the pprof profile
// writers) run on every exit path.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	scale := flag.String("scale", "small", "workload scale: tiny, small, or large")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = all CPU cores)")
	stepWorkers := flag.Int("step-workers", 0, "let each simulation shard tile stepping across up to N goroutines, clamped to GOMAXPROCS and used only while faster than inline stepping (bit-identical results; 0/1 = sequential)")
	replay := flag.Bool("replay", true, "answer timing-only sweep legs from recorded schedules (bit-identical results)")
	noreplay := flag.Bool("noreplay", false, "disable schedule-capture replay (overrides -replay)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole regeneration (0 = none)")
	optLevel := flag.String("O", "", "compiler optimization level applied to every workload leg: O0, O1, O2 (default O0)")
	passes := flag.String("passes", "", "explicit comma-separated pass list (overrides -O): constfold,dce,cse,strength,unroll")
	unroll := flag.Int("unroll", 0, "loop-unroll factor when the unroll pass runs (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var s workloads.Scale
	switch *scale {
	case "tiny":
		s = workloads.Tiny
	case "small":
		s = workloads.Small
	case "large":
		s = workloads.Large
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 2
	}

	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	// Validate every requested id up front: an unknown id fails immediately
	// (with a did-you-mean suggestion) instead of after earlier experiments
	// have already run.
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
		if err := experiments.Resolve(ids[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *jobs > 0 {
		parallel.SetLimit(*jobs)
	}
	// Ctrl-C / SIGTERM cancels the regeneration context, so an interrupted
	// run unwinds through the same clean context.Canceled path as -timeout
	// and the pprof defers above still fire.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *optLevel != "" && *passes != "" {
		fmt.Fprintln(os.Stderr, "experiments: -O and -passes are mutually exclusive")
		return 2
	}
	opt, err := ir.ParseOptConfig(*optLevel, *passes, *unroll)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	r := experiments.NewRunner(s)
	r.StepWorkers = *stepWorkers
	r.Replay = *replay && !*noreplay
	r.Opt = opt
	// Experiments and their internal legs share one worker budget; outputs
	// are buffered and printed in request order.
	outs := make([]string, len(ids))
	took := make([]time.Duration, len(ids))
	err = parallel.ForErrCtx(ctx, 0, len(ids), func(i int) error {
		start := time.Now()
		rep, err := r.Run(ctx, ids[i])
		if err != nil {
			return fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		outs[i] = rep.String()
		took[i] = time.Since(start)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for i := range ids {
		fmt.Println(outs[i])
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v)\n", ids[i], took[i].Round(time.Millisecond))
	}
	if rc := r.ReplayCounters(); rc.Hits+rc.Fallbacks+rc.Recorded > 0 {
		fmt.Fprintf(os.Stderr, "(replay: %d legs replayed, %d fell back, %d schedules recorded)\n",
			rc.Hits, rc.Fallbacks, rc.Recorded)
	}
	return 0
}
