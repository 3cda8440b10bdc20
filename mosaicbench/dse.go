package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mosaicsim/internal/config"
	"mosaicsim/internal/jobs"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/store"
)

// storeDir holds the job stores, under the checkout's build directory.
var storeDir = filepath.Join(".bench_build", "tmp")

const (
	dseStreamLen    = 1 << 12 // specs drawn per run; clients wrap around
	dseSetupReps    = 25      // cold service set-ups per run
	dseVerifyJobs   = 16      // replayed jobs re-run with replay off
	dseDigestJobs   = 32      // leading stream positions folded into sim_digest
	dseRounds       = 8       // rounds per block; one spec in dseRounds falls back
	dseTraceSlices  = 4       // untraced/traced slice pairs in a traced run
	dseShutdownWait = 30 * time.Second
)

var (
	dseKernels = []string{"sgemm-accel", "spmv", "bfs"}
	dseTiles   = []int{1, 2, 4}
)

// dseStream draws the seeded spec stream. Its first positions are the base
// design of every shape (kernel x tile count), so each shape's first job
// is a cold leg that records the schedule later specs replay against. The
// rest comes in blocks of dseRounds rounds, each round every shape once in
// a seeded order, with timing-only knobs moved at random (DRAM bandwidth,
// the mem-class latency and, under perfect branch prediction, the
// mispredict penalty), which replay answers. From the second block on,
// each shape also moves the L1 latency in one seeded round of the block, a
// knob the recorded run read, so that job falls back to full simulation
// over the cached artifact. The mix is fixed, one spec in dseRounds falling
// back, spread evenly over the shapes; the seed draws the order and the
// knob values.
func dseStream(seed int64, n int) []jobs.Spec {
	r := rand.New(rand.NewSource(seed))
	type shape struct {
		kernel string
		tiles  int
	}
	var shapes []shape
	for _, k := range dseKernels {
		for _, t := range dseTiles {
			shapes = append(shapes, shape{k, t})
		}
	}
	out := make([]jobs.Spec, 0, n+len(shapes))
	for _, i := range r.Perm(len(shapes)) {
		out = append(out, dseSpec(shapes[i].kernel, shapes[i].tiles, 24, 0, 8, 1))
	}
	for block := 0; len(out) < n; block++ {
		fallback := make([]int, len(shapes)) // the round that moves each shape's L1 latency
		for i := range fallback {
			fallback[i] = -1
			if block > 0 {
				fallback[i] = r.Intn(dseRounds)
			}
		}
		for round := 0; round < dseRounds; round++ {
			for _, i := range r.Perm(len(shapes)) {
				l1 := int64(1)
				if fallback[i] == round {
					l1 = 2 + int64(r.Intn(2))
				}
				bw := []float64{24, 32, 48, 64}[r.Intn(4)]
				memLat := []int64{0, 2, 3, 4}[r.Intn(4)]
				penalty := []int64{4, 8, 12, 16, 20}[r.Intn(5)]
				out = append(out, dseSpec(shapes[i].kernel, shapes[i].tiles, bw, memLat, penalty, l1))
			}
		}
	}
	return out[:n]
}

// dseSpec is one Tiny-scale design point: tiles out-of-order cores with
// perfect branch prediction over the Table II hierarchy. memLat 0 keeps
// the default mem-class latency.
func dseSpec(kernel string, tiles int, dramGBs float64, memLat, penalty, l1 int64) jobs.Spec {
	core := map[string]any{"branch": config.BranchPerfect, "mispredict_penalty": penalty}
	if memLat > 0 {
		core["latencies"] = map[string]int64{"mem": memLat}
	}
	ov, _ := json.Marshal(core)
	mem := config.TableIIMem()
	mem.DRAM.BandwidthGBs = dramGBs
	mem.L1.LatencyCycles = l1
	return jobs.Spec{
		Workload: kernel,
		Scale:    "tiny",
		Topology: &config.SystemConfig{
			Name:  "dse",
			Tiles: []config.TileDef{{Kind: "ooo", Count: tiles, Overrides: ov}},
			Mem:   mem,
		},
	}
}

// jobSample is one finished job as a client saw it. It keeps the report's
// digest, not the report, so the benchmark's own bookkeeping stays small
// next to the service's memory.
type jobSample struct {
	idx        int
	id         string
	turnaround float64 // Submit call to the observed terminal state, s
	service    float64 // Status.Started to Finished, s
	simulated  bool    // stepped a live system; a replayed run emits no progress
	runSecs    float64 // the job's run stage, s
	instrs     int64
	digest     [32]byte // SHA-256 of the report
}

// finished is everything a client learns about one done job, handed to an
// observer before it is reduced to a jobSample.
type finished struct {
	sample *jobSample
	start  time.Time
	submit time.Duration
	status jobs.Status
	events []jobs.Event
}

// service is one in-process job service. Without a store it is mosaicd's
// default in-memory mode; with one it is the durable mode (-data-dir).
type service struct {
	m     *jobs.Manager
	st    *store.Store
	specs []jobs.Spec
}

func newService(c runConfig, specs []jobs.Spec, cache *sim.Cache, st *store.Store) *service {
	m := jobs.NewManager(jobs.Options{Workers: c.workers, Replay: true, Store: st, Cache: cache})
	return &service{m: m, st: st, specs: specs}
}

// close drains the manager and closes the store, if any.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), dseShutdownWait)
	defer cancel()
	err := s.m.Shutdown(ctx)
	if s.st != nil {
		if cerr := s.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// wait blocks on the job's event notifications until it is terminal and
// returns its whole event log.
func wait(ctx context.Context, j *jobs.Job) ([]jobs.Event, error) {
	var evs []jobs.Event
	for {
		more, next, done := j.EventsSince(len(evs))
		evs = append(evs, more...)
		if done {
			return evs, nil
		}
		select {
		case <-next:
		case <-ctx.Done():
			return evs, ctx.Err()
		}
	}
}

// load runs nproc closed-loop clients for d: each takes the next spec of
// the stream, submits it, and waits for its terminal state before taking
// another. observe, when set, sees every done job in full.
func (s *service) load(c runConfig, next *atomic.Int64, d time.Duration, t *tally, observe func(finished)) ([]*jobSample, float64) {
	var mu sync.Mutex
	var out []*jobSample
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && c.ctx.Err() == nil {
				if f, ok := s.one(c, int(next.Add(1)-1), t); ok {
					if observe != nil {
						observe(f)
					}
					mu.Lock()
					out = append(out, f.sample)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// one submits stream position idx and waits for it. It parses the report
// only when the job stepped a live system, for sim_mips.
func (s *service) one(c runConfig, idx int, t *tally) (finished, bool) {
	start := time.Now()
	j, err := s.m.Submit(s.specs[idx%len(s.specs)])
	submit := time.Since(start)
	if err != nil {
		t.fail("job %d: submit: %v", idx, err)
		return finished{}, false
	}
	evs, err := wait(c.ctx, j)
	turnaround := time.Since(start).Seconds()
	if err != nil {
		t.fail("job %d (%s): %v", idx, j.ID, err)
		return finished{}, false
	}
	st := j.Status()
	if st.State != jobs.StateDone {
		t.fail("job %d (%s): %s: %s", idx, j.ID, st.State, st.Error)
		return finished{}, false
	}
	sm := &jobSample{
		idx: idx, id: j.ID, turnaround: turnaround,
		service: st.Finished.Sub(*st.Started).Seconds(),
		digest:  sha256.Sum256(st.Report),
	}
	for _, e := range evs {
		switch {
		case e.Type == "progress":
			sm.simulated = true
		case e.Type == "stage" && e.Stage == "run":
			sm.runSecs = e.Seconds
		}
	}
	if sm.simulated {
		var res soc.Result
		if err := json.Unmarshal(st.Report, &res); err != nil {
			t.fail("job %d (%s): report: %v", idx, j.ID, err)
			return finished{}, false
		}
		sm.instrs = res.Instrs
	}
	t.ok()
	return finished{sample: sm, start: start, submit: submit, status: st, events: evs}, true
}

// traceJob records a job as a span tree: the client's view (submit, then
// waiting) and, from the job's own timestamps and stage events, its queue
// wait and its service time split into stages.
func traceJob(tr *tracer, f finished) {
	g, st := f.sample.id, f.status
	root := tr.begin("job", g, 0, f.start)
	tr.record("jobs.submit", g, root, f.start, f.start.Add(f.submit))
	tr.record("jobs.queue", g, root, st.Submitted, *st.Started)
	svc := tr.record("jobs.service", g, root, *st.Started, *st.Finished)
	for _, e := range f.events {
		if e.Type == "stage" {
			tr.record("stage."+e.Stage, g, svc, e.Time.Add(-time.Duration(e.Seconds*float64(time.Second))), e.Time)
		}
	}
	tr.finish(root, f.start.Add(time.Duration(f.sample.turnaround*float64(time.Second))))
}

// checkJobs requires every job of the same spec to report the same bytes,
// and folds the reports of the stream's leading positions into a digest.
func checkJobs(specs []jobs.Spec, samples []*jobSample, t *tally) (string, int) {
	byIdx := map[int][32]byte{}
	bySpec := map[string][32]byte{}
	sorted := append([]*jobSample(nil), samples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].idx < sorted[b].idx })
	for _, sm := range sorted {
		byIdx[sm.idx] = sm.digest
		key, err := json.Marshal(specs[sm.idx%len(specs)])
		if err != nil {
			t.fail("job %d: spec: %v", sm.idx, err)
			continue
		}
		if prev, ok := bySpec[string(key)]; ok {
			t.check(prev == sm.digest, "job %d (%s): report differs from an earlier job of the same spec", sm.idx, sm.id)
		} else {
			bySpec[string(key)] = sm.digest
		}
	}
	h := sha256.New()
	n := 0
	for i := 1; i <= dseDigestJobs; i++ {
		if d, ok := byIdx[i]; ok {
			fmt.Fprintf(h, "%d:", i)
			h.Write(d[:])
			n++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// verifyRun is one full, unreplayed pipeline over a cold cache.
type verifyRun struct {
	res              soc.Result
	dyn              int64
	stepped, skipped int64
	run              float64 // System.Run, host s
}

// verify re-runs a seeded sample of replayed jobs with replay off, each
// over its own cold cache, and requires byte-identical reports. The spans
// of these pipelines give dse-service its compile/DDG/trace/build times.
func verify(c runConfig, specs []jobs.Spec, samples []*jobSample, tr *tracer, t *tally) []verifyRun {
	var replayed []*jobSample
	for _, sm := range samples {
		if !sm.simulated {
			replayed = append(replayed, sm)
		}
	}
	sort.Slice(replayed, func(a, b int) bool { return replayed[a].idx < replayed[b].idx })
	r := rand.New(rand.NewSource(c.seed))
	r.Shuffle(len(replayed), func(i, j int) { replayed[i], replayed[j] = replayed[j], replayed[i] })
	if len(replayed) > dseVerifyJobs {
		replayed = replayed[:dseVerifyJobs]
	}
	var out []verifyRun
	for _, sm := range replayed {
		v, digest, err := verifyOne(c, specs[sm.idx%len(specs)], "verify-"+sm.id, tr)
		if err != nil {
			t.fail("verify job %d (%s): %v", sm.idx, sm.id, err)
			continue
		}
		t.check(digest == sm.digest, "verify job %d (%s): replayed report differs from full simulation", sm.idx, sm.id)
		out = append(out, v)
	}
	return out
}

func verifyOne(c runConfig, spec jobs.Spec, group string, tr *tracer) (verifyRun, [32]byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return verifyRun{}, [32]byte{}, err
	}
	opts, err := spec.SessionOptions(sim.NewCache())
	if err != nil {
		return verifyRun{}, [32]byte{}, err
	}
	opts.Replay = false
	sess, err := sim.NewSession(opts)
	if err != nil {
		return verifyRun{}, [32]byte{}, err
	}
	t0 := time.Now()
	root := tr.begin("verify", group, 0, t0)
	art, sys, err := coldPipeline(c, sess, tr, root, group, t0)
	if err != nil {
		return verifyRun{}, [32]byte{}, err
	}
	l, err := runBuilt(c, sys, tr, group, root)
	if err != nil {
		return verifyRun{}, [32]byte{}, err
	}
	tr.finish(root, time.Now())
	v := verifyRun{res: l.res, dyn: art.Trace.TotalDynInstrs(), stepped: l.stepped, skipped: l.skipped, run: l.run}
	return v, sha256.Sum256(l.report), nil
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files, size int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				files++
				size += info.Size()
			}
		}
		return nil
	})
	return files, size
}

// durable runs the service in durable mode, over a store in a fresh temp
// directory and the warm cache, for d; then it reopens the store and times
// the manager's recovery of it.
func durable(c runConfig, specs []jobs.Spec, cache *sim.Cache, next *atomic.Int64, d time.Duration, t *tally, vals map[string]float64) error {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(storeDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	svc := newService(c, specs, cache, st)
	samples, _ := svc.load(c, next, d, t, nil)
	if err := svc.close(); err != nil {
		t.fail("durable service shutdown: %v", err)
	}
	var turn dist
	for _, sm := range samples {
		turn.add(sm.turnaround * 1e3)
	}
	files, size := dirUsage(dir)

	t0 := time.Now()
	if st, err = store.Open(dir); err != nil {
		return err
	}
	svc = newService(c, specs, sim.NewCache(), st)
	secs := time.Since(t0).Seconds()
	recovered := len(svc.m.List())
	if err := svc.close(); err != nil {
		t.fail("recovered service shutdown: %v", err)
	}
	t.check(recovered == len(samples), "store recovery: %d jobs recovered, %d finished", recovered, len(samples))
	vals["store.turnaround_ms_p50"] = turn.median()
	vals["store.files"] = float64(files)
	vals["store.bytes"] = float64(size)
	vals["store.recover_s"] = secs
	vals["store.jobs_recovered"] = float64(recovered)
	return nil
}

// runDSE runs the design-space-exploration service: dseSetupReps cold
// set-ups, then nproc closed-loop clients for the measured time, then the
// correctness gates.
func runDSE(c runConfig, t *tally) (*report, error) {
	r := newReport()
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	specs := dseStream(c.seed, dseStreamLen)

	// Set-up: a fresh manager and cache until the first Submit is
	// accepted. The last one serves the run; its first job warms it up.
	var setup dist
	var svc *service
	for i := 0; i < dseSetupReps; i++ {
		quiesce()
		g := fmt.Sprintf("setup-%d", i)
		t0 := time.Now()
		root := tr.begin("setup", g, 0, t0)
		s := newService(c, specs, sim.NewCache(), nil)
		t1 := time.Now()
		tr.record("jobs.new_manager", g, root, t0, t1)
		j, err := s.m.Submit(specs[0])
		t2 := time.Now()
		tr.record("jobs.submit", g, root, t1, t2)
		tr.finish(root, t2)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup.add(t2.Sub(t0).Seconds())
		_, err = wait(c.ctx, j)
		t.check(err == nil && j.State() == jobs.StateDone, "set-up %d: first job %s ended %s (%v)", i, j.ID, j.State(), j.Err())
		if i == dseSetupReps-1 {
			svc = s
		} else if err := s.close(); err != nil {
			t.fail("set-up %d: shutdown: %v", i, err)
		}
	}
	next := &atomic.Int64{}
	next.Store(1)

	if !c.traced {
		resetPeakRSS()
		samples, elapsed := svc.load(c, next, c.seconds, t, nil)
		peak := peakRSSMB()
		if err := svc.close(); err != nil {
			t.fail("shutdown: %v", err)
		}
		digest, digestJobs := checkJobs(specs, samples, t)
		verified := verify(c, specs, samples, nil, t)
		var turn, mips, legs dist
		for _, sm := range samples {
			turn.add(sm.turnaround * 1e3)
			legs.add(sm.service)
			if sm.simulated && sm.runSecs > 0 {
				mips.add(float64(sm.instrs) / sm.runSecs / 1e6)
			}
		}
		p99 := turn.percentile(99)
		r.set("setup_s", "s", setup.median())
		r.set("sim_mips", "MIPS", mips.median())
		r.set("leg_s", "s", legs.median())
		r.set("turnaround_ms_p50", "ms", turn.median())
		r.set("turnaround_ms_p99", "ms", p99.Value)
		r.set("jobs_per_s", "1/s", float64(len(samples))/elapsed)
		r.set("peak_rss_mb", "MB", peak)
		rc := svc.m.Cache().ReplayCounters()
		r.info["sim_digest"] = digest
		r.info["sim_digest_jobs"] = digestJobs
		r.info["samples"] = map[string]any{
			"setup": setup.n(), "jobs": len(samples), "simulated_jobs": mips.n(),
			"verified": len(verified), "turnaround_ms_p99": p99,
			"replay_hits": rc.Hits, "replay_fallbacks": rc.Fallbacks, "recorded": rc.Recorded,
		}
		return r, nil
	}

	// Traced run: slices of the time alternate between untraced and
	// traced, so the overhead of recording spans is measured under the same
	// host load; then the durable mode runs for a quarter of the time.
	// Traced jobs keep their reports, parsed after the window.
	vals := map[string]float64{}
	var plain, traced []*jobSample
	var mu sync.Mutex
	var reports [][]byte
	observe := func(f finished) {
		traceJob(tr, f)
		mu.Lock()
		reports = append(reports, f.status.Report)
		mu.Unlock()
	}
	for k := 0; k < 2*dseTraceSlices; k++ {
		if k%2 == 0 {
			ss, _ := svc.load(c, next, c.seconds/(2*dseTraceSlices), t, nil)
			plain = append(plain, ss...)
		} else {
			ss, _ := svc.load(c, next, c.seconds/(2*dseTraceSlices), t, observe)
			traced = append(traced, ss...)
		}
	}
	cache := svc.m.Cache()
	if err := svc.close(); err != nil {
		t.fail("shutdown: %v", err)
	}
	turnP50 := func(ss []*jobSample) float64 {
		d := &dist{}
		for _, sm := range ss {
			d.add(sm.turnaround)
		}
		return d.median()
	}
	vals["tracing.overhead_ratio"] = ratio(turnP50(traced), turnP50(plain))
	samples := append(append([]*jobSample(nil), plain...), traced...)
	digest, _ := checkJobs(specs, samples, t)
	vruns := verify(c, specs, samples, tr, t)
	r.info["sim_digest"] = digest

	// Per-layer metrics. Pipeline stage times come from the verification
	// re-runs (cold compile through report of a sampled design point); the
	// service layers from the traced jobs; simulated counts are means over
	// the traced jobs' reports.
	spans := tr.snapshot()
	vals["cc.busy_s"] = selfOf(spans, "cc.compile", "verify").median()
	vals["ddg.busy_s"] = selfOf(spans, "ddg.graph", "verify").median()
	vals["interp.busy_s"] = selfOf(spans, "interp.trace", "verify").median()
	vals["soc.build_s"] = selfOf(spans, "soc.build", "verify").median()
	vals["soc.report_s"] = selfOf(spans, "soc.report", "verify").median()
	vals["soc.run_s"] = selfOf(spans, "soc.run", "verify").median()
	var dyn, stepped, skipped, nsInstr, nsCycle dist
	for _, v := range vruns {
		dyn.add(float64(v.dyn))
		stepped.add(float64(v.stepped))
		skipped.add(float64(v.skipped))
		nsInstr.add(v.run * 1e9 / float64(v.res.Instrs))
		nsCycle.add(v.run * 1e9 / float64(v.stepped))
	}
	vals["interp.dyn_instrs"] = dyn.median()
	vals["interp.mips"] = ratio(dyn.median(), vals["interp.busy_s"]) / 1e6
	vals["soc.stepped_cycles"] = stepped.median()
	vals["soc.skipped_cycles"] = skipped.median()
	vals["soc.skip_ratio"] = ratio(skipped.median(), stepped.median()+skipped.median())
	vals["soc.ns_per_stepped_cycle"] = nsCycle.median()
	vals["core.ns_per_instr"] = nsInstr.median()
	one := map[string]float64{}
	for _, b := range reports {
		var res soc.Result
		if err := json.Unmarshal(b, &res); err != nil {
			t.fail("report: %v", err)
			continue
		}
		resultLayers(res, one)
		for k, v := range one {
			vals[k] += v / float64(len(reports))
		}
	}
	cc := cache.Counters()
	vals["sim.cache_hit_ratio"] = ratio(float64(cc.Hits), float64(cc.Hits+cc.Misses))
	vals["sim.cache_entries"] = float64(cache.Entries())
	rc := cache.ReplayCounters()
	vals["replay.hit_ratio"] = ratio(float64(rc.Hits), float64(rc.Hits+rc.Fallbacks))
	vals["replay.fallbacks"] = float64(rc.Fallbacks)
	vals["replay.recorded"] = float64(rc.Recorded)
	vals["jobs.submit_us_p50"] = selfOf(spans, "jobs.submit", "job").median() * 1e6
	queue, service := durOf(spans, "jobs.queue"), durOf(spans, "jobs.service")
	vals["jobs.queue_wait_ms_p50"] = queue.median() * 1e3
	vals["jobs.queue_wait_ms_p99"] = queue.percentile(99).Value * 1e3
	vals["jobs.service_ms_p50"] = service.median() * 1e3
	vals["jobs.service_ms_p99"] = service.percentile(99).Value * 1e3
	if err := durable(c, specs, cache, next, c.seconds/4, t, vals); err != nil {
		t.fail("durable mode: %v", err)
	}
	r.setLayers(vals)
	r.info["samples"] = map[string]any{
		"setup": setup.n(), "jobs": len(samples), "traced_jobs": len(traced), "verified": len(vruns),
		"jobs.queue_wait_ms_p99": queue.percentile(99).scaled(1e3), "jobs.service_ms_p99": service.percentile(99).scaled(1e3),
	}
	if err := writeSpans("dse-service", tr); err != nil {
		return nil, err
	}
	return r, nil
}
