package soc

// The step engine: System.Run's one loop steps tiles and ticks the private
// cache stacks through it, in one of two modes (the DESIGN.md §5e contract).
//
// Inline mode steps every tile and ticks every private stack on the Run
// goroutine, in position order, with no goroutines, channels or atomics —
// the sequential Interleaver. Sharded mode splits each stepped cycle into
// two parallel phases over a bounded set of workers, the Run goroutine
// being worker 0. Phase A steps the tiles: each worker owns a contiguous
// range of tile positions and steps them in increasing position order,
// publishing a per-worker watermark after each tile. All cross-worker waits
// target strictly lower tile positions, so the wait graph is acyclic: the
// lowest unfinished tile can always run, and the phase always terminates.
// Phase B shards the memory-hierarchy tick: after the serial slice ticks the
// shared levels (DRAM, LLC), each worker ticks the private cache stacks of
// its owned cores and folds its tiles into the per-worker progress/freeze
// reduction the serial phase joins.
//
// Four ordering rules make sharded stepping bit-identical to inline:
//
//   - Fabric capacity (soc.go sendHasRoom): a sender observes exactly the
//     receiver pops sequential tile order would have shown — the committed
//     epoch count when the receiver steps later this cycle, the live count
//     (after waiting for the receiver's step) when it steps earlier.
//   - Same-cycle delivery (soc.go TryRecv): a zero-transfer-cost message is
//     receivable the cycle it is sent, so the receiver of such a pair reads
//     the committed push count when it steps before its sender (this
//     cycle's pushes and future-send maturations are invisible — on a
//     zero-cost pair an arrival value always equals the cycle it was
//     written, so arrival >= now identifies them) and waits for the
//     sender's step otherwise.
//   - Sync ops: a core whose step may touch shared synchronization state —
//     barrier arrivals/releases or accelerator invocations — first waits
//     for every lower tile position to finish (core.MaySync, a conservative
//     trace-window test). That replicates the sequential prefix those ops
//     observe; tiles without sync ops in flight only touch their own SPSC
//     queues and per-tile shards and run unordered.
//   - Staged coherence commits (mem.Hierarchy): with a directory, a core's
//     AccessAt — directory lookup, cross-core invalidations, recall
//     writebacks — is staged per core during phase A and committed at the
//     serial join in (tile-position, issue-seq) order, the exact total
//     order sequential stepping interleaves them in. Nothing in a core's
//     step reads the state those actions change (results arrive through
//     done callbacks fired by later ticks), so deferral is invisible.
//
// The remaining serial phase — shared-level ticks, staged-access drains,
// epoch commit, horizon jumps — stays on the Run goroutine.
//
// Which mode runs is a measurement, not a promise: with more than one
// effective worker the engine steps inline for a first hold, then times
// short probe windows of stepped cycles in both modes, holds the faster
// mode and probes again — holding twice as long each time the held mode
// wins again. A switch happens only at a cycle boundary, after the epoch
// commit and every staged drain, where both modes agree on the whole
// system state, so the mode sequence cannot change a Result. Helpers block
// on their wake channels while the engine is inline.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// probeWindow is the number of stepped cycles one probe window times.
	probeWindow = 512
	// probeWindows is the number of windows one probe times, alternating
	// modes; each mode's cost is the minimum of its windows, so a window
	// that a garbage collection or a host hiccup slowed cannot decide. It
	// is even, so a probe ends in the mode it started out holding.
	probeWindows = 4
	// holdWindows is how many probe windows' worth of stepped cycles a
	// hold lasts: the first (inline, so runs too short to amortize a probe
	// never shard), and any after a probe that changed the mode. A probe
	// that keeps the mode doubles the hold, up to maxHoldWindows, so the
	// probes' cost fades on a long run where one mode stays faster.
	holdWindows    = 128
	maxHoldWindows = 16 * holdWindows
	// spinLimit bounds busy polling of a watermark or generation counter
	// before each further poll yields the processor.
	spinLimit = 128
)

// tileSlot is one tile's stepping state, padded to a cache line so workers
// stepping neighbouring tiles never write the same line.
type tileSlot struct {
	accum, stride int64 // clock-ratio accumulator and per-cycle increment
	// delta holds the stall-sample increments of the tile's last frozen
	// step; idle records that the tile stepped frozen since the last
	// progress event anywhere. delta is constant while the state stays
	// frozen, so the skipper can replay it arithmetically.
	delta StallSample
	idle  bool
	_     [7]byte
}

// phaseOp is the phase a sharded dispatch asks the helpers to run.
type phaseOp uint8

const (
	opStep phaseOp = iota // phase A: step the owned tiles
	opTick                // phase B: tick the owned private stacks
	opPark                // block on the wake channel until sharded again
)

// pworker is one worker's slot. The Run goroutine is worker 0; workers 1..n
// are helper goroutines.
type pworker struct {
	lo, hi int        // owned tile-position range [lo, hi)
	wake   chan int64 // parked helper's resume signal (the generation it resumes after); closed at stop
	// Results of the worker's last phase, written before it publishes done:
	// the any-tile-active result of a step phase, and the worker's slice of
	// the tick phase's progress/freeze reduction — the summed progress
	// counters of its owned tiles and private cache stacks, and whether
	// every owned live tile has confirmed a frozen step.
	active   bool
	tickProg uint64
	frozen   bool
	// prog is the worker's watermark: base + pos + 1 after finishing the
	// tile at pos. base is seq*len(tiles), with seq a dense counter of
	// sharded step phases (cycles jump under skipping, so they cannot seed
	// the encoding); a stale value from an earlier phase is always below
	// any current-phase target.
	prog atomicPadded
	// done is the last dispatch generation the worker finished.
	done atomicPadded
}

// atomicPadded is a counter alone on its cache line.
type atomicPadded struct {
	v atomic.Int64
	_ [7]int64
}

// stepPin overrides the engine's measured mode choice for tests.
type stepPin struct {
	mode  pinMode
	every int64 // pinSwitch: stepped cycles between switches
}

type pinMode uint8

const (
	pinAuto    pinMode = iota // probe and hold the faster mode
	pinSharded                // always sharded (when more than one tile)
	pinSwitch                 // alternate inline/sharded every stepped cycles
)

// PinShardedForTest makes every later Run of s step sharded throughout —
// bypassing the measured inline/sharded choice and the GOMAXPROCS clamp —
// so determinism tests exercise the sharded path on any host. It is a test
// hook; production callers leave the choice to the engine.
func PinShardedForTest(s *System) { s.pin = stepPin{mode: pinSharded} }

// stepEngine owns one Run's tile stepping and private-stack ticking.
type stepEngine struct {
	s        *System
	maxClock int64
	slots    []tileSlot

	workers []pworker // ownership ranges; one worker means inline only
	owner   []int     // tile position -> worker index
	sharded bool      // current mode
	spins   int       // polls before yielding (0 when workers outnumber GOMAXPROCS)

	// Sharded dispatch: the Run goroutine writes op/cycle/base, then
	// publishes the next generation; helpers spin on gen and report
	// completion through their done counters.
	gen     atomicPadded
	g       int64 // the Run goroutine's copy of gen
	op      phaseOp
	cycle   int64
	base    int64
	seq     int64
	helpers sync.WaitGroup

	// tickProgress and tickConfirmed are the reductions of the last tick
	// phase: the progress sum over every tile, private cache stack and
	// shared level (uint64 addition is order-independent, so the sharded
	// sum is bit-identical to the inline one) and the all-tiles-frozen test.
	tickProgress  uint64
	tickConfirmed bool

	// Mode policy: stepped cycles left in the current window, the window's
	// start time, the number of probe windows timed so far (probeWindows
	// while holding), each mode's best probe cost per stepped cycle
	// (inline, sharded), and the current hold's length in windows.
	left  int64
	t0    time.Time
	probe int
	best  [2]float64
	hold  int64
}

// stepWorkers is the effective worker count: StepWorkers clamped to the
// tile count and — unless a test pins the mode — to GOMAXPROCS, since
// workers beyond the processors only spin.
func (s *System) stepWorkers() int {
	nw := min(s.StepWorkers, len(s.tiles))
	if s.pin.mode == pinAuto {
		nw = min(nw, runtime.GOMAXPROCS(0))
	}
	return max(nw, 1)
}

// startEngine builds the engine for one Run: the per-tile slots, the
// worker ranges and, with more than one effective worker, the parked
// helpers and the mode policy.
func (s *System) startEngine(maxClock int64) *stepEngine {
	nt := len(s.tiles)
	nw := s.stepWorkers()
	e := &stepEngine{
		s:        s,
		maxClock: maxClock,
		slots:    make([]tileSlot, nt),
		workers:  make([]pworker, nw),
		owner:    make([]int, nt),
		left:     math.MaxInt64,
	}
	for i, t := range s.tiles {
		// accum starts at maxClock so every tile steps on cycle 0.
		e.slots[i] = tileSlot{accum: maxClock, stride: int64(t.ClockMHz())}
	}
	per, rem := nt/nw, nt%nw
	lo := 0
	for w := range e.workers {
		sz := per
		if w < rem {
			sz++
		}
		e.workers[w].lo, e.workers[w].hi = lo, lo+sz
		for p := lo; p < lo+sz; p++ {
			e.owner[p] = w
		}
		lo += sz
	}
	s.StepWorkersUsed = nw
	s.InlineNsPerCycle, s.ShardedNsPerCycle = 0, 0
	if nw == 1 {
		return e
	}
	if nw <= runtime.GOMAXPROCS(0) {
		e.spins = spinLimit
	}
	for w := 1; w < nw; w++ {
		e.workers[w].wake = make(chan int64, 1)
		e.helpers.Add(1)
		go e.helper(&e.workers[w])
	}
	switch s.pin.mode {
	case pinSharded:
		e.setSharded(true)
	case pinSwitch:
		e.left = s.pin.every
	default:
		e.probe = probeWindows
		e.hold = holdWindows
		e.left = probeWindow * holdWindows
	}
	return e
}

// stop parks and retires the helpers and detaches the engine from the
// fabric and the hierarchy.
func (e *stepEngine) stop() {
	if len(e.workers) == 1 {
		return
	}
	e.setSharded(false)
	for w := 1; w < len(e.workers); w++ {
		close(e.workers[w].wake)
	}
	e.helpers.Wait()
}

// setSharded switches modes at a cycle boundary. Going sharded re-derives
// the fabric's committed views from the live queues, attaches the engine
// (selecting the epoch rules) and coherence staging, and wakes the
// helpers; going inline parks the helpers and detaches both.
func (e *stepEngine) setSharded(on bool) {
	if on == e.sharded {
		return
	}
	e.sharded = on
	f, h := e.s.Fabric, e.s.Hier
	if on {
		f.prepareParallel()
		f.engine = e
		if h.Dir != nil {
			h.SetCoherenceStaging(true)
		}
		for w := 1; w < len(e.workers); w++ {
			e.workers[w].wake <- e.g
		}
		return
	}
	e.dispatch(opPark, 0)
	e.join()
	f.engine = nil
	h.SetCoherenceStaging(false)
}

// window runs at a window boundary, before the cycle's step: it applies the
// switch pin, or moves the probe/hold policy on — recording a closing probe
// window's cost, deciding after the last one, and starting a new probe when
// a hold ends.
func (e *stepEngine) window() {
	if pin := e.s.pin; pin.mode == pinSwitch {
		e.setSharded(!e.sharded)
		e.left = pin.every
		return
	}
	if e.probe == probeWindows {
		e.startProbe()
		return
	}
	now := time.Now()
	m := 0
	if e.sharded {
		m = 1
	}
	e.best[m] = min(e.best[m], float64(now.Sub(e.t0).Nanoseconds())/probeWindow)
	e.t0 = now
	if e.probe++; e.probe < probeWindows {
		e.setSharded(!e.sharded)
		e.left = probeWindow
		return
	}
	e.s.InlineNsPerCycle, e.s.ShardedNsPerCycle = e.best[0], e.best[1]
	// The last window (an even count after startProbe's switch) ran in the
	// mode held before the probe.
	faster := e.best[1] < e.best[0]
	if faster == e.sharded {
		e.hold = min(2*e.hold, maxHoldWindows)
	} else {
		e.hold = holdWindows
	}
	e.setSharded(faster)
	e.left = probeWindow * e.hold
}

// startProbe begins a probe in the mode not held, so that after the
// alternating windows a held mode that still wins costs no switch.
func (e *stepEngine) startProbe() {
	e.probe = 0
	e.best = [2]float64{math.Inf(1), math.Inf(1)}
	e.setSharded(!e.sharded)
	e.left = probeWindow
	e.t0 = time.Now()
}

// dispatch publishes one sharded phase to the helpers.
func (e *stepEngine) dispatch(op phaseOp, cycle int64) {
	e.op, e.cycle = op, cycle
	e.g++
	e.gen.v.Store(e.g)
}

// join waits until every helper has finished the current generation.
func (e *stepEngine) join() {
	for w := 1; w < len(e.workers); w++ {
		e.spinUntil(&e.workers[w].done.v, e.g)
	}
}

// spinUntil polls v until it reaches at least target, busy for e.spins
// polls and yielding the processor on each poll after that.
func (e *stepEngine) spinUntil(v *atomic.Int64, target int64) {
	for n := 0; v.Load() < target; n++ {
		if n >= e.spins {
			runtime.Gosched()
		}
	}
}

// helper is one helper goroutine: parked on its wake channel until the
// engine goes sharded, then serving dispatched phases until told to park.
func (e *stepEngine) helper(w *pworker) {
	defer e.helpers.Done()
	for g := range w.wake {
		for {
			g++
			e.spinUntil(&e.gen.v, g)
			if e.op == opPark {
				w.done.v.Store(g)
				break
			}
			if e.op == opStep {
				w.active = e.stepTiles(w.lo, w.hi, e.cycle, w)
			} else {
				w.tickProg, w.frozen = e.tickTiles(w.lo, w.hi, e.cycle)
			}
			w.done.v.Store(g)
		}
	}
}

// step runs the tile phase of one stepped cycle and reports whether any
// tile is still active. A sharded phase ends with the epoch commit and the
// staged coherence commit, so every cycle boundary is a valid switch point.
func (e *stepEngine) step(cycle int64) bool {
	if e.left--; e.left <= 0 {
		e.window()
	}
	if !e.sharded {
		return e.stepTiles(0, len(e.slots), cycle, nil)
	}
	e.seq++
	e.s.ParallelPhases++
	e.base = e.seq * int64(len(e.slots))
	e.dispatch(opStep, cycle)
	w0 := &e.workers[0]
	active := e.stepTiles(w0.lo, w0.hi, cycle, w0)
	e.join()
	for w := 1; w < len(e.workers); w++ {
		active = active || e.workers[w].active
	}
	e.s.Fabric.commitEpoch()
	e.s.Hier.CommitStaged()
	return active
}

// tick runs the hierarchy tick of one stepped cycle: the shared levels on
// the Run goroutine, then every core's private stack (inline, or sharded
// with the shared-level accesses they emit staged per core and drained in
// core order), folding the progress/freeze reduction as it goes.
func (e *stepEngine) tick(cycle int64) {
	h := e.s.Hier
	h.TickShared(cycle)
	if !e.sharded {
		e.tickProgress, e.tickConfirmed = e.tickTiles(0, len(e.slots), cycle)
	} else {
		h.BeginTickStage()
		e.dispatch(opTick, cycle)
		w0 := &e.workers[0]
		e.tickProgress, e.tickConfirmed = e.tickTiles(w0.lo, w0.hi, cycle)
		e.join()
		h.DrainTickStage()
		for w := 1; w < len(e.workers); w++ {
			e.tickProgress += e.workers[w].tickProg
			e.tickConfirmed = e.tickConfirmed && e.workers[w].frozen
		}
	}
	e.tickProgress += uint64(h.ProgressShared())
}

// stepTiles steps tile positions [lo, hi) for cycle in position order —
// the per-tile clock-ratio accumulator, and the frozen-step bracketing the
// skipper replays — and reports whether any of them is active. w is the
// stepping worker in sharded mode (sync-capable steps wait for every lower
// position, and the worker's watermark advances after each tile), nil
// inline.
func (e *stepEngine) stepTiles(lo, hi int, cycle int64, w *pworker) bool {
	active := false
	tiles, slots, maxClock := e.s.tiles, e.slots, e.maxClock
	for pos := lo; pos < hi; pos++ {
		t := tiles[pos]
		sl := &slots[pos]
		sl.accum += sl.stride
		if sl.accum >= maxClock {
			sl.accum -= maxClock
			if w != nil && t.MaySync() {
				// The step may arrive at a barrier, test a release, or
				// invoke an accelerator: give it the sequential prefix.
				e.waitAllBelow(pos)
			}
			pp := t.Progress()
			before := t.SnapshotStalls()
			if t.Step(cycle) {
				active = true
			}
			if t.Progress() == pp {
				// Frozen step: its stall increments repeat verbatim until
				// something, somewhere, makes progress.
				sl.delta = t.SnapshotStalls().Sub(before)
				sl.idle = true
			}
		} else if !t.Done() {
			active = true
		}
		if w != nil {
			w.prog.v.Store(e.base + int64(pos) + 1)
		}
	}
	return active
}

// tickTiles ticks the private cache stacks of tile positions [lo, hi) and
// returns their slice of the progress/freeze reduction. Tile position
// p >= 1 is core p-1 (position 0 is the accelerator manager, which has no
// cache stack), so a sharded worker ticks exactly the cores whose tiles it
// stepped — core state, its caches, and its completion callbacks stay on one
// goroutine per cycle.
func (e *stepEngine) tickTiles(lo, hi int, cycle int64) (prog uint64, frozen bool) {
	h, tiles, slots := e.s.Hier, e.s.tiles, e.slots
	frozen = true
	for pos := lo; pos < hi; pos++ {
		if pos > 0 {
			h.TickCore(pos-1, cycle)
			prog += uint64(h.ProgressCore(pos - 1))
		}
		t := tiles[pos]
		prog += t.Progress()
		if frozen && !slots[pos].idle && !t.Done() {
			frozen = false
		}
	}
	return prog, frozen
}

// clearIdle invalidates every frozen-step confirmation: a tile that idled
// against the old state may act on the new one.
func (e *stepEngine) clearIdle() {
	for i := range e.slots {
		e.slots[i].idle = false
	}
}

// jump advances every tile over delta elided cycles: the clock-ratio
// accumulator arithmetically, and the frozen stall increments replayed once
// per step the tile would have taken.
func (e *stepEngine) jump(delta int64) {
	m := e.maxClock
	for i, t := range e.s.tiles {
		sl := &e.slots[i]
		base := sl.accum / m
		adv := sl.accum + delta*sl.stride
		k := adv/m - base
		sl.accum = adv - k*m
		if k > 0 && !t.Done() {
			t.ReplayStalls(sl.delta, k)
		}
	}
}

// waitCore blocks until the tile owning core id has finished its step this
// phase. Callers only ever wait on lower tile positions.
func (e *stepEngine) waitCore(id int) {
	pos := e.s.tilePos[id]
	e.spinUntil(&e.workers[e.owner[pos]].prog.v, e.base+int64(pos)+1)
}

// waitAllBelow blocks until every tile position < pos has finished its step
// this phase (positions the caller's own worker owns are already done by
// program order).
func (e *stepEngine) waitAllBelow(pos int) {
	for i := range e.workers {
		w := &e.workers[i]
		if w.lo >= pos {
			break
		}
		// Positions [w.lo, min(w.hi, pos)) are done once the watermark
		// reaches base + min(w.hi, pos).
		e.spinUntil(&w.prog.v, e.base+int64(min(w.hi, pos)))
	}
}
