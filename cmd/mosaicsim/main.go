// Command mosaicsim is the main simulator driver: it compiles a kernel (a
// built-in workload or a mini-C source file), generates its dynamic traces
// with the built-in DTG, simulates it on a configured system, and reports
// the system-wide performance estimate (§II of the paper). Each run is a
// sim.Session, so the CLI, the experiment harness, and the library API all
// drive the same engine.
//
// Usage:
//
//	mosaicsim -list
//	mosaicsim -workload sgemm -tiles 4 -core ooo
//	mosaicsim -workload spmv -config sys.json -json
//	mosaicsim -workload sgemm -topology configs/core-accel.json
//	mosaicsim -workload projection -topology dae-pair
//	mosaicsim -workload bfs,spmv,sgemm -tiles 8 -jobs 4
//	mosaicsim -workload bfs -tiles 8 -coherence -mesh 4 -branch dynamic
//	mosaicsim -workload lbm -tiles 8 -timeout 30s
//
// -workload accepts a comma-separated list; the runs fan out across -jobs
// workers (default: all CPU cores) and outputs print in list order.
// -timeout bounds the whole sweep's wall-clock time: when it expires,
// in-flight simulations abort mid-run and queued ones are abandoned.
//
// (For external kernel sources, use mosaic-ddg -src to inspect compilation
// and the library API to drive simulation.)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/parallel"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// main delegates to run so every exit path unwinds run's defers — the pprof
// CPU/heap profile writers in particular, which os.Exit inside the work loop
// would otherwise skip.
func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "built-in workload name, or a comma-separated list (see -list)")
	list := flag.Bool("list", false, "list built-in workloads")
	tiles := flag.Int("tiles", 1, "SPMD tile count")
	coreKind := flag.String("core", "ooo", "core model: ooo, inorder, xeon")
	scale := flag.String("scale", "small", "workload scale: tiny, small, large")
	memKind := flag.String("mem", "tab2", "memory hierarchy: tab1 (Xeon-like) or tab2 (DAE study)")
	dram := flag.String("dram", "", "override DRAM model: simple or banked")
	coherence := flag.Bool("coherence", false, "enable the directory coherence extension")
	mesh := flag.Int("mesh", 0, "arrange tiles on a 2D mesh of this width (0 = flat fabric)")
	hop := flag.Int64("hop", 4, "NoC per-hop latency in cycles (with -mesh)")
	branch := flag.String("branch", "", "override branch predictor: none, static, dynamic, perfect")
	asJSON := flag.Bool("json", false, "emit the result as JSON instead of tables")
	cfgPath := flag.String("config", "", "system configuration JSON (overrides -core/-mem/-tiles)")
	topology := flag.String("topology", "", "declarative topology: a JSON file (see configs/) or a preset name (spmd-xeon, dae-pair, core-accel)")
	saveCfg := flag.String("save-config", "", "write the effective system configuration to a JSON file and exit")
	jobs := flag.Int("jobs", 0, "max concurrent workload simulations (0 = all CPU cores)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = none)")
	noskip := flag.Bool("noskip", false, "disable event-horizon cycle skipping (naive cycle-by-cycle loop)")
	replay := flag.Bool("replay", true, "answer timing-only re-simulations from recorded schedules (bit-identical results)")
	noreplay := flag.Bool("noreplay", false, "disable schedule-capture replay (overrides -replay)")
	stepWorkers := flag.Int("step-workers", 0, "let each simulation shard tile stepping across up to N goroutines, clamped to GOMAXPROCS and used only while faster than inline stepping (bit-identical results; 0/1 = sequential)")
	optLevel := flag.String("O", "", "compiler optimization level: O0, O1, O2 (default O0)")
	passes := flag.String("passes", "", "explicit comma-separated pass list (overrides -O): constfold,dce,cse,strength,unroll")
	unroll := flag.Int("unroll", 0, "loop-unroll factor when the unroll pass runs (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s %s\n", w.Name, w.Desc)
		}
		return 0
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "need -workload (or -list); see -h")
		return 2
	}
	// Validate the whole list up front: an unknown name fails immediately
	// (with a did-you-mean suggestion) instead of after earlier runs.
	var ws []*workloads.Workload
	for _, name := range strings.Split(*workload, ",") {
		w, err := workloads.Resolve(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mosaicsim:", err)
			return 2
		}
		ws = append(ws, w)
	}
	if *optLevel != "" && *passes != "" {
		fmt.Fprintln(os.Stderr, "mosaicsim: -O and -passes are mutually exclusive")
		return 2
	}
	opt, err := ir.ParseOptConfig(*optLevel, *passes, *unroll)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mosaicsim:", err)
		return 2
	}
	if !opt.IsDefault() {
		for i := range ws {
			ws[i] = ws[i].WithOpt(opt)
		}
	}

	configFor := func(w *workloads.Workload) (*config.SystemConfig, error) {
		var sc *config.SystemConfig
		if *topology != "" {
			if *cfgPath != "" {
				return nil, fmt.Errorf("-topology and -config are mutually exclusive")
			}
			var err error
			if _, statErr := os.Stat(*topology); statErr == nil {
				sc, err = config.Load(*topology)
			} else {
				sc, err = config.TopologyPreset(*topology)
			}
			if err != nil {
				return nil, err
			}
			if *branch != "" {
				return nil, fmt.Errorf("-branch cannot override a declarative topology; set it per tile in the file")
			}
		} else if *cfgPath != "" {
			var err error
			sc, err = config.Load(*cfgPath)
			if err != nil {
				return nil, err
			}
		} else {
			var core config.CoreConfig
			switch *coreKind {
			case "ooo":
				core = config.OutOfOrderCore()
			case "inorder":
				core = config.InOrderCore()
			case "xeon":
				core = config.XeonLikeCore()
			default:
				return nil, fmt.Errorf("unknown core %q", *coreKind)
			}
			mem := config.TableIIMem()
			if *memKind == "tab1" {
				mem = config.TableIMem()
			}
			sc = &config.SystemConfig{
				Name:  fmt.Sprintf("%s-%dx%s", w.Name, *tiles, *coreKind),
				Cores: []config.CoreSpec{{Core: core, Count: *tiles}},
				Mem:   mem,
			}
		}
		switch *dram {
		case "":
		case "simple":
			sc.Mem.DRAM.Model = config.DRAMSimple
		case "banked":
			bw := sc.Mem.DRAM.BandwidthGBs
			sc.Mem.DRAM = config.BankedDRAMDefaults(bw)
		default:
			return nil, fmt.Errorf("unknown DRAM model %q", *dram)
		}
		if *coherence {
			sc.Mem.Directory = true
		}
		if *mesh > 0 {
			sc.NoC = &config.NoCConfig{MeshWidth: *mesh, HopCycles: *hop}
		}
		if *branch != "" {
			for i := range sc.Cores {
				sc.Cores[i].Core.Branch = config.BranchPredictor(*branch)
			}
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		return sc, nil
	}

	if *saveCfg != "" {
		sc, err := configFor(ws[0])
		if err != nil {
			return fatal(err)
		}
		if err := sc.Save(*saveCfg); err != nil {
			return fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveCfg)
		return 0
	}

	var wScale workloads.Scale
	switch *scale {
	case "tiny":
		wScale = workloads.Tiny
	case "large":
		wScale = workloads.Large
	default:
		wScale = workloads.Small
	}

	// Ctrl-C / SIGTERM cancels the sweep context, so an interrupted run
	// unwinds through the same clean context.Canceled path as -timeout —
	// in-flight simulations abort promptly, queued legs are abandoned, and
	// the pprof defers above still fire.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Each workload simulates independently; outputs are buffered and
	// printed in list order so -jobs never reorders or interleaves them.
	if *jobs > 0 {
		parallel.SetLimit(*jobs)
	}
	outs := make([]string, len(ws))
	err = parallel.ForErrCtx(ctx, 0, len(ws), func(i int) error {
		out, err := runOne(ctx, ws[i], configFor, wScale, *scale, *asJSON, *noskip, *replay && !*noreplay, *stepWorkers)
		outs[i] = out
		return err
	})
	for _, out := range outs {
		fmt.Print(out)
	}
	if err != nil {
		return fatal(err)
	}
	return 0
}

// runOne traces and simulates one workload as a sim.Session, returning its
// full rendered output.
func runOne(ctx context.Context, w *workloads.Workload, configFor func(*workloads.Workload) (*config.SystemConfig, error),
	wScale workloads.Scale, scale string, asJSON, noskip, replay bool, stepWorkers int) (string, error) {
	sc, err := configFor(w)
	if err != nil {
		return "", err
	}
	refClock, err := soc.ReferenceClockMHz(sc)
	if err != nil {
		return "", err
	}
	s, err := sim.NewSession(sim.Options{
		Workload:             w,
		Scale:                wScale,
		Config:               sc,
		Accels:               workloads.DefaultAccelModels(refClock),
		DisableCycleSkipping: noskip,
		Replay:               replay,
		StepWorkers:          stepWorkers,
	})
	if err != nil {
		return "", err
	}
	tiles := sc.TileCount()
	var sb strings.Builder
	fmt.Fprintf(&sb, "compiling and tracing %s (%d tiles, %s scale)...\n", w.Name, tiles, scale)
	tr, err := s.Trace(ctx)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "trace: %d dynamic instructions, %d memory events\n",
		tr.TotalDynInstrs(), tr.TotalMemEvents())

	res, err := s.Run(ctx)
	if err != nil {
		return "", err
	}
	// A replayed run is answered analytically from a recorded schedule:
	// there is no live system behind it, so component-level tables are
	// summarized from the result alone.
	sys := s.System()
	if asJSON {
		enc := json.NewEncoder(&sb)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return "", err
		}
		return sb.String(), nil
	}
	printResult(&sb, res, sys, s.Replay())
	return sb.String(), nil
}

func printResult(out io.Writer, r soc.Result, sys *soc.System, rp sim.ReplayOutcome) {
	tbl := stats.NewTable("simulation result", "metric", "value")
	tbl.Row("cycles", r.Cycles)
	tbl.Row("instructions", r.Instrs)
	tbl.Row("IPC", r.IPC)
	tbl.Row("energy (uJ)", r.EnergyPJ/1e6)
	tbl.Row("  cores (uJ)", r.Energy.CoresPJ/1e6)
	tbl.Row("  caches (uJ)", (r.Energy.L1PJ+r.Energy.L2PJ+r.Energy.LLCPJ)/1e6)
	tbl.Row("  DRAM (uJ)", r.Energy.DRAMPJ/1e6)
	if r.Energy.AccelPJ > 0 {
		tbl.Row("  accelerators (uJ)", r.Energy.AccelPJ/1e6)
	}
	tbl.Row("L1 accesses", r.L1.Accesses)
	tbl.Row("L1 hit rate", r.L1.HitRate())
	if r.L2.Accesses > 0 {
		tbl.Row("L2 hit rate", r.L2.HitRate())
	}
	if r.LLC.Accesses > 0 {
		tbl.Row("LLC hit rate", r.LLC.HitRate())
	}
	tbl.Row("DRAM reads", r.DRAM.Reads)
	tbl.Row("DRAM writebacks", r.DRAM.Writebacks)
	if r.AccelCalls > 0 {
		tbl.Row("accelerator calls", r.AccelCalls)
		tbl.Row("accelerator bytes", r.AccelBytes)
	}
	stepped, skipped := rp.Stepped, rp.Skipped
	if sys != nil {
		stepped, skipped = sys.SteppedCycles, sys.SkippedCycles
	}
	tbl.Row("cycles stepped", stepped)
	tbl.Row("cycles skipped", skipped)
	tbl.Row("skip fraction", stats.SkipFraction(stepped, skipped))
	if sys != nil {
		if ok, reason := sys.ParallelEligibility(); ok {
			tbl.Row("parallel stepping", fmt.Sprintf("%d of %d requested workers, sharded %.1f%% of stepped cycles",
				sys.StepWorkersUsed, sys.StepWorkers, 100*sys.ShardedShare()))
			probe := "none (the run ended inside the first inline hold)"
			if sys.InlineNsPerCycle > 0 {
				probe = fmt.Sprintf("inline %.0f, sharded %.0f", sys.InlineNsPerCycle, sys.ShardedNsPerCycle)
			}
			tbl.Row("  last probe (ns/stepped cycle)", probe)
		} else {
			tbl.Row("parallel stepping", "sequential ("+reason+")")
		}
		if sys.ParallelPhases > 0 {
			tbl.Row("parallel phases", sys.ParallelPhases)
		}
	}
	if rp.Attempted {
		switch {
		case rp.Replayed:
			tbl.Row("replay", "hit ("+strings.Join(rp.Families, ", ")+")")
		case rp.Recorded:
			tbl.Row("replay", "schedule recorded")
		default:
			tbl.Row("replay", "fallback ("+rp.Reason+")")
		}
	}
	fmt.Fprintln(out, tbl.String())

	if sys == nil {
		// Replayed run: per-tile rollup from the result's core stats.
		per := stats.NewTable("per-tile", "tile", "instrs", "IPC", "loads", "stores", "sends", "recvs", "MAO stalls", "comm stalls")
		for i := range r.CoreStats {
			s := &r.CoreStats[i]
			per.Row(i, s.Instrs, s.IPC(), s.Loads, s.Stores, s.Sends, s.Recvs, s.MAOStalls, s.CommStalls)
		}
		fmt.Fprintln(out, per.String())
		return
	}

	per := stats.NewTable("per-tile", "tile", "instrs", "IPC", "loads", "stores", "sends", "recvs", "MAO stalls", "comm stalls")
	for i, c := range sys.Cores {
		s := c.Stats
		per.Row(i, s.Instrs, s.IPC(), s.Loads, s.Stores, s.Sends, s.Recvs, s.MAOStalls, s.CommStalls)
	}
	fmt.Fprintln(out, per.String())

	// Heterogeneous systems get a per-kind rollup so core vs accelerator
	// time is visible at a glance.
	if bks := sys.TileBreakdown(); len(bks) > 1 {
		kinds := stats.NewTable("per-kind", "kind", "tiles", "instrs", "active cycles", "stall cycles")
		for _, b := range bks {
			kinds.Row(b.Kind, b.Tiles, b.Instrs, b.ActiveCycles, b.StallCycles)
		}
		fmt.Fprintln(out, kinds.String())
	}
}

// fatal reports err and returns the failure exit code for run to return, so
// deferred cleanups (profiles) still execute.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "mosaicsim:", err)
	return 1
}
