package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"mosaicsim/internal/config"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// setupReps is how many cold set-ups a run makes; setup_s is their median.
const setupReps = 11

// simWorkload is a simulation workload: one seeded kernel on one system,
// simulated leg after leg over a warm artifact cache.
type simWorkload struct {
	name    string
	kernel  func(seed int64) *workloads.Workload
	config  *config.SystemConfig
	workers int // StepWorkers of the measured legs (1 = sequential)
}

// coreSGEMM is core-bound: SGEMM on one Xeon-like tile, stepped
// sequentially.
func coreSGEMM() simWorkload {
	return simWorkload{name: "core-sgemm", kernel: seededSGEMM, config: config.XeonSystem(1), workers: 1}
}

// spmvMesh is memory-bound: SPMV on 8 out-of-order tiles on a 4-wide mesh
// over the Table II hierarchy with directory coherence, stepped by nproc
// workers.
func spmvMesh(nproc int) simWorkload {
	mem := config.TableIIMem()
	mem.Directory = true
	return simWorkload{
		name:   "spmv-mesh",
		kernel: seededSPMV,
		config: &config.SystemConfig{
			Name:  "spmv-mesh",
			Tiles: []config.TileDef{{Kind: "ooo", Count: 8}},
			Mem:   mem,
			NoC:   &config.NoCConfig{MeshWidth: 4, HopCycles: 4},
		},
		workers: nproc,
	}
}

func (w simWorkload) session(kernel *workloads.Workload, cache *sim.Cache, workers int) (*sim.Session, error) {
	return sim.NewSession(sim.Options{
		Workload:    kernel,
		Scale:       workloads.Small,
		Config:      w.config,
		StepWorkers: workers,
		Cache:       cache,
	})
}

// warmState is what a cold set-up leaves for the measured legs.
type warmState struct {
	kernel *workloads.Workload
	cache  *sim.Cache
	dyn    int64 // traced dynamic instructions
}

// coldSetup runs compile -> DDG -> trace -> build of the first leg over a
// fresh cache and a fresh (uncompiled) kernel, and returns its host time.
func (w simWorkload) coldSetup(c runConfig, tr *tracer, group string) (warmState, float64, error) {
	kernel := w.kernel(c.seed)
	cache := sim.NewCache()
	sess, err := w.session(kernel, cache, w.workers)
	if err != nil {
		return warmState{}, 0, err
	}
	t0 := time.Now()
	root := tr.begin("setup", group, 0, t0)
	art, _, err := coldPipeline(c, sess, tr, root, group, t0)
	if err != nil {
		return warmState{}, 0, err
	}
	t1 := time.Now()
	tr.finish(root, t1)
	return warmState{kernel: kernel, cache: cache, dyn: art.Trace.TotalDynInstrs()}, t1.Sub(t0).Seconds(), nil
}

// coldPipeline runs a session's compile, DDG, trace and build stages in
// order from t0, recording each as a child of root.
func coldPipeline(c runConfig, sess *sim.Session, tr *tracer, root int, group string, t0 time.Time) (*sim.Artifact, *soc.System, error) {
	if _, err := sess.Compile(c.ctx); err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	tr.record("cc.compile", group, root, t0, t1)
	if _, err := sess.Graph(c.ctx); err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	tr.record("ddg.graph", group, root, t1, t2)
	art, err := sess.Artifact(c.ctx)
	if err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	tr.record("interp.trace", group, root, t2, t3)
	sys, err := sess.BuildSystem(c.ctx)
	if err != nil {
		return nil, nil, err
	}
	tr.record("soc.build", group, root, t3, time.Now())
	return art, sys, nil
}

// legStats is one measured leg.
type legStats struct {
	res                         soc.Result
	report                      []byte
	turnaround, build, run, rep float64 // host seconds
	stepped, skipped, phases    int64
}

// leg is one request for a simulation over the warm cache: a new session,
// its (cached) artifact, then BuildSystem, Run and the marshalled report.
// leg_s covers the last three; the turnaround covers all of it.
func (w simWorkload) leg(c runConfig, ws warmState, workers int, tr *tracer, group string) (legStats, error) {
	t0 := time.Now()
	root := tr.begin("leg", group, 0, t0)
	sess, err := w.session(ws.kernel, ws.cache, workers)
	if err != nil {
		return legStats{}, err
	}
	if _, err := sess.Artifact(c.ctx); err != nil {
		return legStats{}, err
	}
	t1 := time.Now()
	tr.record("sim.artifact", group, root, t0, t1)
	sys, err := sess.BuildSystem(c.ctx)
	if err != nil {
		return legStats{}, err
	}
	t2 := time.Now()
	tr.record("soc.build", group, root, t1, t2)
	l, err := runBuilt(c, sys, tr, group, root)
	if err != nil {
		return legStats{}, err
	}
	l.turnaround = time.Since(t0).Seconds()
	l.build = t2.Sub(t1).Seconds()
	tr.finish(root, time.Now())
	return l, nil
}

// runBuilt runs a built system and marshals its report.
func runBuilt(c runConfig, sys *soc.System, tr *tracer, group string, root int) (legStats, error) {
	t0 := time.Now()
	if err := sys.Run(c.ctx, 0); err != nil {
		return legStats{}, err
	}
	t1 := time.Now()
	tr.record("soc.run", group, root, t0, t1)
	res := sys.Result()
	b, err := json.Marshal(res)
	if err != nil {
		return legStats{}, err
	}
	t2 := time.Now()
	tr.record("soc.report", group, root, t1, t2)
	return legStats{
		res: res, report: b,
		run: t1.Sub(t0).Seconds(), rep: t2.Sub(t1).Seconds(),
		stepped: sys.SteppedCycles, skipped: sys.SkippedCycles, phases: sys.ParallelPhases,
	}, nil
}

// legSet summarises a sequence of measured legs.
type legSet struct {
	legs    []legStats
	elapsed float64
}

func (s legSet) dist(f func(legStats) float64) *dist {
	d := &dist{}
	for _, l := range s.legs {
		d.add(f(l))
	}
	return d
}

func legTime(l legStats) float64 { return l.build + l.run + l.rep }

func legMIPS(l legStats) float64 { return float64(l.res.Instrs) / l.run / 1e6 }

// measure runs legs for d (at least one per set), leg i recording into
// tracers[i%len(tracers)] and landing in the i%len(tracers)-th set. Every
// leg's report must equal *ref byte for byte; the first leg sets *ref.
func (w simWorkload) measure(c runConfig, ws warmState, ref *[]byte, d time.Duration, tracers []*tracer, t *tally) []legSet {
	sets := make([]legSet, len(tracers))
	start := time.Now()
	for i := 0; i < len(tracers) || time.Since(start) < d; i++ {
		if c.ctx.Err() != nil {
			t.fail("run deadline reached after %d legs", i)
			break
		}
		l, err := w.leg(c, ws, w.workers, tracers[i%len(tracers)], fmt.Sprintf("leg-%d", i))
		if err != nil {
			t.fail("leg %d: %v", i, err)
			continue
		}
		if *ref == nil {
			*ref = l.report
		}
		t.check(bytes.Equal(l.report, *ref), "leg %d: soc.Result differs from the first leg's", i)
		sets[i%len(tracers)].legs = append(sets[i%len(tracers)].legs, l)
	}
	for k := range sets {
		sets[k].elapsed = time.Since(start).Seconds()
	}
	return sets
}

// runSim runs a simulation workload: setupReps cold set-ups, then measured
// legs over the last set-up's warm cache.
func runSim(w simWorkload, c runConfig, t *tally) (*report, error) {
	r := newReport()
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var setup dist
	var ws warmState
	for i := 0; i < setupReps; i++ {
		ws = warmState{}
		quiesce()
		s, secs, err := w.coldSetup(c, tr, fmt.Sprintf("setup-%d", i))
		if err != nil {
			t.fail("set-up %d: %v", i, err)
			continue
		}
		t.ok()
		setup.add(secs)
		ws = s
	}
	if ws.cache == nil {
		return nil, fmt.Errorf("the last cold set-up failed")
	}
	var ref []byte
	digest := func(l legStats) {
		sum := sha256.Sum256(ref)
		r.info["sim_digest"] = hex.EncodeToString(sum[:])
		r.info["sim_instrs"] = l.res.Instrs
		r.info["sim_cycles"] = l.res.Cycles
		r.info["step_workers"] = w.workers
	}

	if !c.traced {
		resetPeakRSS()
		s := w.measure(c, ws, &ref, c.seconds, []*tracer{nil}, t)[0]
		peak := peakRSSMB()
		if len(s.legs) == 0 {
			return nil, fmt.Errorf("no leg completed")
		}
		digest(s.legs[0])
		turn := s.dist(func(l legStats) float64 { return l.turnaround * 1e3 })
		p99 := turn.percentile(99)
		r.set("setup_s", "s", setup.median())
		r.set("sim_mips", "MIPS", s.dist(legMIPS).median())
		r.set("leg_s", "s", s.dist(legTime).median())
		r.set("turnaround_ms_p50", "ms", turn.median())
		r.set("turnaround_ms_p99", "ms", p99.Value)
		r.set("jobs_per_s", "1/s", float64(len(s.legs))/s.elapsed)
		r.set("peak_rss_mb", "MB", peak)
		r.info["samples"] = map[string]any{"setup": setup.n(), "legs": len(s.legs), "turnaround_ms_p99": p99}
		return r, nil
	}

	// Traced run: legs alternate between untraced and traced, so the
	// overhead of recording spans is measured under the same host load.
	sets := w.measure(c, ws, &ref, c.seconds, []*tracer{nil, tr}, t)
	plain, traced := sets[0], sets[1]
	if len(traced.legs) == 0 {
		return nil, fmt.Errorf("no traced leg completed")
	}
	l0 := traced.legs[0]
	digest(l0)
	vals := map[string]float64{}
	spans := tr.snapshot()
	vals["cc.busy_s"] = selfOf(spans, "cc.compile", "setup").median()
	vals["ddg.busy_s"] = selfOf(spans, "ddg.graph", "setup").median()
	vals["interp.busy_s"] = selfOf(spans, "interp.trace", "setup").median()
	vals["interp.dyn_instrs"] = float64(ws.dyn)
	vals["interp.mips"] = ratio(float64(ws.dyn), vals["interp.busy_s"]) / 1e6
	vals["soc.build_s"] = selfOf(spans, "soc.build", "leg").median()
	vals["soc.run_s"] = selfOf(spans, "soc.run", "leg").median()
	vals["soc.report_s"] = selfOf(spans, "soc.report", "leg").median()
	vals["soc.stepped_cycles"] = float64(l0.stepped)
	vals["soc.skipped_cycles"] = float64(l0.skipped)
	vals["soc.skip_ratio"] = ratio(float64(l0.skipped), float64(l0.stepped+l0.skipped))
	vals["soc.ns_per_stepped_cycle"] = vals["soc.run_s"] * 1e9 / float64(l0.stepped)
	vals["soc.parallel_phases"] = float64(l0.phases)
	vals["core.ns_per_instr"] = vals["soc.run_s"] * 1e9 / float64(l0.res.Instrs)
	resultLayers(l0.res, vals)
	cc := ws.cache.Counters()
	vals["sim.cache_hit_ratio"] = ratio(float64(cc.Hits), float64(cc.Hits+cc.Misses))
	vals["sim.cache_entries"] = float64(ws.cache.Entries())
	vals["tracing.overhead_ratio"] = ratio(traced.dist(legTime).median(), plain.dist(legTime).median())
	if w.workers > 1 {
		// The sequential reference leg: it must equal the sharded legs, and
		// its time over a sharded leg's is the parallel speed-up.
		seq, err := w.leg(c, ws, 1, tr, "sequential")
		if err != nil {
			t.fail("sequential leg: %v", err)
		} else {
			t.check(bytes.Equal(seq.report, ref), "sequential leg: soc.Result differs from the sharded legs'")
			vals["soc.parallel_speedup"] = ratio(legTime(seq), traced.dist(legTime).median())
		}
	}
	r.setLayers(vals)
	r.info["samples"] = map[string]any{"setup": setup.n(), "plain_legs": len(plain.legs), "traced_legs": len(traced.legs)}
	if err := writeSpans(w.name, tr); err != nil {
		return nil, err
	}
	return r, nil
}
