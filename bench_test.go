package mosaicsim

// The benchmark harness regenerates every paper artifact under `go test
// -bench` (one benchmark per table/figure, DESIGN.md §4) and reports the
// headline metric of each as a custom benchmark metric. Ablation benchmarks
// quantify the design choices DESIGN.md §6 calls out. Benchmarks run at Tiny
// workload scale so `-bench=.` stays minutes-fast; cmd/experiments runs the
// same code at Small scale for the EXPERIMENTS.md numbers.

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/experiments"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

func runExperiment(b *testing.B, id, metric string) {
	b.Helper()
	var val float64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(workloads.Tiny)
		rep, err := r.Run(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			val = rep.Values[metric]
		}
	}
	if metric != "" {
		b.ReportMetric(val, strings.ReplaceAll(metric, " ", "_"))
	}
}

func BenchmarkFig01Trends(b *testing.B) { runExperiment(b, "fig1", "cores2017") }
func BenchmarkTab01System(b *testing.B) { runExperiment(b, "tab1", "dram_gbs") }
func BenchmarkTab02DAE(b *testing.B)    { runExperiment(b, "tab2", "ooo_area") }
func BenchmarkFig05Accuracy(b *testing.B) {
	runExperiment(b, "fig5", "geomean")
}
func BenchmarkFig06IPC(b *testing.B) { runExperiment(b, "fig6", "sgemm") }
func BenchmarkFig07BFSScaling(b *testing.B) {
	runExperiment(b, "fig7", "sim8")
}
func BenchmarkFig08SGEMMScaling(b *testing.B) {
	runExperiment(b, "fig8", "sim8")
}
func BenchmarkFig09SPMVScaling(b *testing.B) {
	runExperiment(b, "fig9", "sim8")
}
func BenchmarkFig10AccelDSE(b *testing.B) {
	runExperiment(b, "fig10", "acc_sgemm/rtl")
}
func BenchmarkFig11DAE(b *testing.B) {
	runExperiment(b, "fig11", "4 DAE pairs (OoO-area-equiv heterogeneous)")
}
func BenchmarkFig12SparseDense(b *testing.B) {
	runExperiment(b, "fig12", "sgemm/Accel")
}
func BenchmarkFig13Combined(b *testing.B) {
	runExperiment(b, "fig13", "4+4 InO DAE w/Accel/equal (50/50)")
}
func BenchmarkFig14DNNEDP(b *testing.B) { runExperiment(b, "fig14", "RecSys") }
func BenchmarkStorage(b *testing.B)     { runExperiment(b, "storage", "sgemm") }

// benchmarkSweep drives a batch of experiments through one Runner at the
// given worker-pool width; the serial/parallel pair below quantifies the
// sweep engine's throughput win (output is identical either way, per
// TestParallelSweepDeterminism).
func benchmarkSweep(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(workloads.Tiny)
		r.Jobs = jobs
		for _, id := range []string{"fig5", "fig11", "fig12"} {
			if _, err := r.Run(context.Background(), id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// BenchmarkSimulatorMIPS measures raw simulation speed in millions of
// simulated instructions per host second (§VI-B reports 0.47 MIPS
// single-threaded for the original; Sniper 0.45, gem5 0.053).
func BenchmarkSimulatorMIPS(b *testing.B) {
	w := workloads.SGEMM()
	g, tr, err := w.Trace(1, workloads.Small)
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.XeonSystem(1)
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := soc.NewSPMD(cfg, g, tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		instrs += sys.Result().Instrs
	}
	b.StopTimer()
	seconds := b.Elapsed().Seconds()
	if seconds > 0 {
		b.ReportMetric(float64(instrs)/seconds/1e6, "MIPS")
	}
}

// simCycles runs a workload on one configured core and returns cycles.
func simCycles(b *testing.B, w *workloads.Workload, core config.CoreConfig, mem config.MemConfig) int64 {
	return simCyclesAt(b, w, core, mem, workloads.Tiny)
}

func simCyclesAt(b *testing.B, w *workloads.Workload, core config.CoreConfig, mem config.MemConfig, s workloads.Scale) int64 {
	b.Helper()
	g, tr, err := w.Trace(1, s)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := soc.NewSPMD(&config.SystemConfig{
		Name: "ablate", Cores: []config.CoreSpec{{Core: core, Count: 1}}, Mem: mem,
	}, g, tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		b.Fatal(err)
	}
	return sys.Cycles
}

// Ablation benchmarks: each reports the speedup delivered by the design
// choice (cycles without the feature / cycles with it).

func BenchmarkAblationAliasSpec(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		on := config.OutOfOrderCore()
		off := on
		off.PerfectAliasSpec = false
		w := workloads.SPMV()
		ratio = float64(simCycles(b, w, off, config.TableIIMem())) /
			float64(simCycles(b, w, on, config.TableIIMem()))
	}
	b.ReportMetric(ratio, "speedup")
}

func BenchmarkAblationPrefetch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		memOn := config.TableIIMem()
		memOn.L1.PrefetchDegree = 4
		memOn.L2.PrefetchDegree = 4
		memOff := config.TableIIMem()
		// Small scale: the stream must exceed the caches for prefetching to
		// matter.
		w := workloads.Stencil()
		ratio = float64(simCyclesAt(b, w, config.OutOfOrderCore(), memOff, workloads.Small)) /
			float64(simCyclesAt(b, w, config.OutOfOrderCore(), memOn, workloads.Small))
	}
	b.ReportMetric(ratio, "speedup")
}

func BenchmarkAblationDRAMModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		simple := config.TableIIMem()
		banked := config.TableIIMem()
		banked.DRAM = config.BankedDRAMDefaults(banked.DRAM.BandwidthGBs)
		w := workloads.LBM()
		ratio = float64(simCyclesAt(b, w, config.OutOfOrderCore(), banked, workloads.Small)) /
			float64(simCyclesAt(b, w, config.OutOfOrderCore(), simple, workloads.Small))
	}
	b.ReportMetric(ratio, "banked/simple")
}

func BenchmarkAblationBranch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		perfect := config.OutOfOrderCore()
		perfect.Branch = config.BranchPerfect
		none := config.OutOfOrderCore()
		none.Branch = config.BranchNone
		w := workloads.BFS()
		ratio = float64(simCycles(b, w, none, config.TableIIMem())) /
			float64(simCycles(b, w, perfect, config.TableIIMem()))
	}
	b.ReportMetric(ratio, "speedup")
}

func BenchmarkAblationDBBSpec(b *testing.B) {
	// Live-DBB limits: hardware loop unrolling in pre-RTL accelerator tiles
	// (§III-A).
	var ratio float64
	for i := 0; i < b.N; i++ {
		one := config.AcceleratorTileCore(1)
		eight := config.AcceleratorTileCore(8)
		w := workloads.Stencil()
		ratio = float64(simCycles(b, w, one, config.TableIIMem())) /
			float64(simCycles(b, w, eight, config.TableIIMem()))
	}
	b.ReportMetric(ratio, "speedup")
}

func BenchmarkAblationAccelModel(b *testing.B) {
	// Closed-form vs cycle-level pipeline evaluation of one accelerator
	// invocation: the closed form is the fast path §VI-B credits for
	// higher simulation speed.
	a := accel.NewSGEMM(accel.DesignPoint{PLMBytes: 64 << 10, Lanes: 16})
	params := []int64{0, 0, 0, 512, 512, 512}
	var cf, pipe int64
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			cf, err = a.ClosedForm(params)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			pipe, err = a.SimulatePipeline(params)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if pipe > 0 {
		b.ReportMetric(float64(cf)/float64(pipe), "cf/pipe")
	}
}

// BenchmarkTraceEncode measures trace serialization throughput (the §VI-B
// storage path).
func BenchmarkTraceEncode(b *testing.B) {
	w := workloads.SGEMM()
	_, tr, err := w.Trace(1, workloads.Small)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		n, err := tr.EncodedSize()
		if err != nil {
			b.Fatal(err)
		}
		bytes = n
	}
	b.ReportMetric(float64(bytes), "trace-bytes")
}

// BenchmarkCompileO2 measures the front-end with the full O2 pipeline —
// parse, IR build, and seven pass applications with a verify run after each.
// The gate in CI keeps pipeline cost from silently eating the compile stage's
// budget as passes grow.
func BenchmarkCompileO2(b *testing.B) {
	w := workloads.SGEMM()
	opt := ir.OptConfig{Level: "O2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.CompileWithOpt(w.Src, w.Name, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTG measures the Dynamic Trace Generator's native-execution speed.
func BenchmarkDTG(b *testing.B) {
	w := workloads.SGEMM()
	var total int64
	for i := 0; i < b.N; i++ {
		_, tr, err := w.Trace(1, workloads.Small)
		if err != nil {
			b.Fatal(err)
		}
		total += tr.TotalDynInstrs()
	}
	seconds := b.Elapsed().Seconds()
	if seconds > 0 {
		b.ReportMetric(float64(total)/seconds/1e6, "MIPS")
	}
}

// BenchmarkAblationCoherence reports the slowdown the directory protocol
// (§V-A future-work extension) adds on a shared histogram hammered by four
// tiles.
func BenchmarkAblationCoherence(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		w := workloads.HISTO()
		g, tr, err := w.Trace(4, workloads.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		run := func(directory bool) int64 {
			mem := config.TableIIMem()
			mem.Directory = directory
			sys, err := soc.NewSPMD(&config.SystemConfig{
				Name:  "coh",
				Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
				Mem:   mem,
			}, g, tr, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			return sys.Cycles
		}
		ratio = float64(run(true)) / float64(run(false))
	}
	b.ReportMetric(ratio, "coherent/incoherent")
}

// BenchmarkAblationNoC reports the slowdown of DAE pair communication over a
// 2D mesh with per-hop latency versus an idealized flat fabric.
func BenchmarkAblationNoC(b *testing.B) {
	src := `
void kernel(double* A, double* out, long n) {
  // Request-response ping-pong between mesh corners: round-trip link
  // latency sits on the critical path.
  long tid = tile_id();
  if (tid == 0) {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
      send(3, A[i]);
      acc += recv_double(3);
    }
    out[0] = acc;
  } else {
    if (tid == 3) {
      for (long i = 0; i < n; i++) {
        send(0, recv_double(0));
      }
    }
  }
}
`
	mod, err := cc.Compile(src, "noc")
	if err != nil {
		b.Fatal(err)
	}
	f := mod.Func("kernel")
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := interp.NewMemory(1 << 22)
		args := []uint64{m.AllocF64(make([]float64, 500)), m.Alloc(8, 8), 500}
		res, err := interp.Run(f, m, args, interp.Options{NumTiles: 4})
		if err != nil {
			b.Fatal(err)
		}
		g := ddg.Build(f)
		run := func(noc *config.NoCConfig) int64 {
			sys, err := soc.NewSPMD(&config.SystemConfig{
				Name:  "noc",
				Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 4}},
				Mem:   config.TableIIMem(),
				NoC:   noc,
			}, g, res.Trace, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Run(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			return sys.Cycles
		}
		ratio = float64(run(&config.NoCConfig{MeshWidth: 2, HopCycles: 40})) / float64(run(nil))
	}
	b.ReportMetric(ratio, "mesh/flat")
}

// benchmarkStepWorkers simulates a 64-tile SPMD mesh at the given
// tile-stepping parallelism; the sequential/sharded pair below quantifies
// the parallel Interleaver's throughput win on a wide system (results are
// bit-identical either way, per TestParallelSteppingDeterminism and the
// golden-matrix worker legs). The sharded leg runs at shardedWorkers(8).
// The win scales with host cores: on a single-core host the sharded leg
// only measures the coordination overhead.
func benchmarkStepWorkers(b *testing.B, workers int) {
	b.Helper()
	w := workloads.SGEMM()
	g, tr, err := w.Trace(64, workloads.Small)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &config.SystemConfig{
		Name:  "step-workers",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 64}},
		Mem:   config.TableIIMem(),
		NoC:   &config.NoCConfig{MeshWidth: 8, HopCycles: 4},
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := soc.NewSPMD(cfg, g, tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.StepWorkers = workers
		if workers > 1 {
			sys.StepWorkers = shardedWorkers(workers)
			soc.PinShardedForTest(sys)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		if workers > 1 && sys.ParallelPhases == 0 {
			b.Fatal("parallel stepper never engaged")
		}
		cycles = sys.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// shardedWorkers is the worker count the sharded benchmark legs run at: the
// engine's own clamp, min(workers, GOMAXPROCS), but at least two so the leg
// shards even on a one-processor host. The legs pin sharded stepping (the
// engine would otherwise step inline wherever that measures faster), so
// they time the sharded mode exactly as a run on this host would shard.
func shardedWorkers(workers int) int {
	return max(2, min(workers, runtime.GOMAXPROCS(0)))
}

func BenchmarkStepSequential(b *testing.B) { benchmarkStepWorkers(b, 1) }
func BenchmarkStepSharded8(b *testing.B)   { benchmarkStepWorkers(b, 8) }

// benchmarkStepCoherent simulates a 64-tile directory-coherent SPMD mesh at
// the given tile-stepping parallelism. Coherent hierarchies used to force
// the sequential fallback; with invalidations staged and epoch-committed
// they shard like any other topology (bit-identical results, per
// TestCoherentSystemStepsParallel and the cfg/coherence golden worker legs).
// As with the pair above, the sharded leg runs at shardedWorkers(8) and the
// win scales with host cores: on a single-core host the sharded leg only
// measures the coordination overhead.
func benchmarkStepCoherent(b *testing.B, workers int) {
	b.Helper()
	w := workloads.SGEMM()
	g, tr, err := w.Trace(64, workloads.Small)
	if err != nil {
		b.Fatal(err)
	}
	mc := config.TableIIMem()
	mc.Directory = true
	cfg := &config.SystemConfig{
		Name:  "step-coherent",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 64}},
		Mem:   mc,
		NoC:   &config.NoCConfig{MeshWidth: 8, HopCycles: 4},
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := soc.NewSPMD(cfg, g, tr, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.StepWorkers = workers
		if workers > 1 {
			sys.StepWorkers = shardedWorkers(workers)
			soc.PinShardedForTest(sys)
		}
		if err := sys.Run(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
		if workers > 1 && sys.ParallelPhases == 0 {
			b.Fatal("parallel stepper never engaged on the coherent mesh")
		}
		cycles = sys.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkStepCoherent64Sequential(b *testing.B) { benchmarkStepCoherent(b, 1) }
func BenchmarkStepCoherent64Sharded8(b *testing.B)   { benchmarkStepCoherent(b, 8) }

// replaySweepSrc is the sweep benchmark's kernel: a reduction over A (real
// cache and DRAM traffic) followed by an accelerator offload — the same shape
// the replay equivalence matrix pins down in internal/sim, so every leg the
// benchmark replays is one the matrix has proven bit-exact.
const replaySweepSrc = `
void kernel(float* A, float* B, float* C, long dim) {
  long tid = tile_id();
  if (tid == 0) {
    float s = 0.0;
    for (long i = 0; i < dim*dim; i++) { s = s + A[i]; }
    C[0] = s;
    acc_sgemm(A, B, C, dim, dim, dim);
  }
}
`

// BenchmarkSweepReplay measures the schedule-capture replay win on a
// timing-only Pareto sweep (DESIGN.md §5f): 100 legs over a mem-class-latency
// × DRAM-bandwidth grid share one recorded schedule, so every leg after the
// first is answered analytically instead of re-simulated. The reported
// "speedup" metric is the recording (full-simulation) leg's wall time divided
// by the mean replayed leg's; the acceptance bar is >=10x. A leg that falls
// back to full simulation fails the benchmark — the sweep is timing-only by
// construction, so a fallback means the classifier regressed.
func BenchmarkSweepReplay(b *testing.B) {
	w := workloads.SGEMMAccel()
	w.Name = "replay-sweep"
	w.Src = replaySweepSrc
	dp := accel.DesignPoint{PLMBytes: 256 << 10, Lanes: 4}
	models := map[string]soc.AccelModel{}
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		models[name] = &accel.Model{
			Acc:       accel.ByName(name, dp),
			Mode:      accel.ModeClosedForm,
			SystemMHz: 2000,
			MaxMemGBs: 24,
		}
	}
	// 10×10 grid; bandwidth sweeps upward from the Table II baseline so the
	// simple-DRAM refit certificate always holds (budget only grows).
	legs := make([]*config.SystemConfig, 0, 100)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			c := config.OutOfOrderCore()
			c.Branch = config.BranchPerfect
			c.Latencies = map[string]int64{"mem": int64(1 + 7*i)}
			mem := config.TableIIMem()
			mem.DRAM.BandwidthGBs = float64(24 + 8*j)
			legs = append(legs, &config.SystemConfig{
				Name:  "replay-sweep",
				Cores: []config.CoreSpec{{Core: c, Count: 1}},
				Mem:   mem,
			})
		}
	}
	run := func(cache *sim.Cache, cfg *config.SystemConfig) sim.ReplayOutcome {
		s, err := sim.NewSession(sim.Options{
			Workload: w,
			Scale:    workloads.Tiny,
			Config:   cfg,
			Accels:   models,
			Cache:    cache,
			Replay:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return s.Replay()
	}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := sim.NewCache()
		start := time.Now()
		if out := run(cache, legs[0]); !out.Recorded {
			b.Fatalf("recording leg published no schedule (reason: %q)", out.Reason)
		}
		record := time.Since(start)
		start = time.Now()
		for k, cfg := range legs[1:] {
			if out := run(cache, cfg); !out.Replayed {
				b.Fatalf("timing-only leg %d fell back: %q", k+1, out.Reason)
			}
		}
		perLeg := time.Since(start) / time.Duration(len(legs)-1)
		if perLeg > 0 {
			speedup = float64(record) / float64(perLeg)
		}
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(len(legs)), "legs")
}

// BenchmarkAblationDynamicBranch compares the gshare dynamic predictor
// (§III-C future-work extension) against static prediction on the branchy
// tpacf kernel.
func BenchmarkAblationDynamicBranch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		dyn := config.OutOfOrderCore()
		dyn.Branch = config.BranchDynamic
		stat := config.OutOfOrderCore()
		stat.Branch = config.BranchStatic
		w := workloads.TPACF()
		ratio = float64(simCycles(b, w, stat, config.TableIIMem())) /
			float64(simCycles(b, w, dyn, config.TableIIMem()))
	}
	b.ReportMetric(ratio, "speedup")
}
