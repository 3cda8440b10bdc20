// Package soc implements MosaicSim-Go's Interleaver (§II): it composes tile
// models (cores and accelerators), advances them cycle by cycle with
// per-tile clock ratios, carries inter-tile messages through bounded
// communication buffers, and drives the shared memory hierarchy —
// "combining module behaviors into system-wide performance estimates".
package soc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/trace"
)

// AccelResult is what an accelerator performance model reports for one
// invocation (§IV-A): clock cycles, bytes moved to/from memory, and average
// energy.
type AccelResult struct {
	Cycles   int64
	Bytes    int64
	EnergyPJ float64
}

// AccelModel is a pluggable accelerator tile model. Invoke receives the
// traced invocation parameters and the number of already-outstanding
// invocations of the same accelerator, so models can scale execution under
// memory-bandwidth sharing (§IV-B).
type AccelModel interface {
	Invoke(params []int64, concurrent int) (AccelResult, error)
}

// TileSpec instantiates one tile: its core configuration, the kernel DDG it
// replays, and its dynamic trace. DAE systems give different tiles different
// kernels (§VII-A). Kind labels the tile for per-kind breakdowns; empty
// defaults to the core config's name.
type TileSpec struct {
	Cfg   config.CoreConfig
	Kind  string
	Graph *ddg.Graph
	TT    *trace.TileTrace
}

// Fabric is the Interleaver's message transport: bounded per-(src,dst) FIFOs
// with a fixed transfer latency (§II-C; Table II communication buffers).
// With a NoC configured, transfers additionally pay per-hop latency for the
// Manhattan distance between the tiles on a 2D mesh — the "message module"
// the paper lists as the natural extension of the tile model (§V-A).
//
// Every queue is single-producer/single-consumer (the producer is the source
// tile, the consumer the destination tile) and every statistic is sharded
// per tile, so tiles stepping on different workers send and receive
// concurrently while the totals merge deterministically; DESIGN.md §5e has
// the full parallel-stepping contract.
type Fabric struct {
	Capacity int
	Latency  int64
	// Tiles is the system's tile count (barrier membership and shard width).
	Tiles int
	// MeshWidth > 0 arranges tiles on a 2D mesh of that width; HopCycles is
	// the per-hop link latency.
	MeshWidth int
	HopCycles int64
	// Slots pins tile i to mesh slot Slots[i] (row-major); nil places tiles
	// row-major by tile ID.
	Slots []int

	queues map[[2]int]*msgQueue

	arrivals []int64 // per-tile barrier arrival counts
	// participants marks the tiles that execute barrier ops; nil means every
	// tile in [0, Tiles) does (the legacy rule for hand-built fabrics).
	participants []bool

	// Per-tile statistic shards, indexed by the tile that earns the count
	// (the sender, except recvs). Sequential stepping only ever bumped the
	// old global counters from the stepping tile, so summing the shards is
	// bit-identical at any worker count.
	sends     []int64
	recvs     []int64
	fullStall []int64
	hops      []int64

	// engine is non-nil while System.Run is stepping tiles in parallel; it
	// selects the epoch capacity rule and forbids lazy queue creation.
	engine *stepEngine
	// dirty lists, per receiving tile, the queues that tile popped since the
	// last epoch commit; commitEpoch publishes their pop counts to senders.
	dirty [][]*msgQueue
	// pushDirty lists, per sending tile, the same-cycle queues that tile
	// pushed into since the last epoch commit; commitEpoch publishes their
	// push counts to receivers.
	pushDirty [][]*msgQueue
}

// transferCost returns the fabric latency from src to dst — including NoC
// hops when a mesh is configured — and the hop count. It is a pure query:
// hop accounting is charged by the successful-send paths, so horizon probes
// and rejected sends never mutate statistics.
func (f *Fabric) transferCost(src, dst int) (lat, hops int64) {
	lat = f.Latency
	if f.MeshWidth <= 0 {
		return lat, 0
	}
	if f.Slots != nil {
		if src >= len(f.Slots) || dst >= len(f.Slots) {
			panic(fmt.Sprintf("soc: fabric Slots pins %d tiles but tile %d sends to tile %d (Fabric.Validate rejects this before a run)",
				len(f.Slots), src, dst))
		}
		src, dst = f.Slots[src], f.Slots[dst]
	}
	sx, sy := src%f.MeshWidth, src/f.MeshWidth
	dx, dy := dst%f.MeshWidth, dst/f.MeshWidth
	hops = int64(abs(sx-dx) + abs(sy-dy))
	return lat + hops*f.HopCycles, hops
}

// Validate checks the fabric's NoC geometry up front: a short, off-grid, or
// duplicated Slots table is reported as a construction-time error (the same
// rule topology.Build applies to declarative configs) instead of an opaque
// index panic mid-run. System.Run calls it before the first cycle.
func (f *Fabric) Validate() error {
	if f.MeshWidth <= 0 {
		if f.Slots != nil {
			return fmt.Errorf("soc: fabric pins %d mesh slots but configures no mesh (MeshWidth = %d)", len(f.Slots), f.MeshWidth)
		}
		return nil
	}
	if f.Slots == nil {
		if f.Tiles > f.MeshWidth*f.MeshWidth {
			return fmt.Errorf("soc: a %dx%d mesh cannot place %d tiles", f.MeshWidth, f.MeshWidth, f.Tiles)
		}
		return nil
	}
	if f.Tiles > len(f.Slots) {
		return fmt.Errorf("soc: fabric has %d tiles but Slots pins only %d; every tile needs a mesh slot", f.Tiles, len(f.Slots))
	}
	seen := map[int]int{}
	for i, s := range f.Slots {
		if s < 0 || s >= f.MeshWidth*f.MeshWidth {
			return fmt.Errorf("soc: tile %d pinned to mesh slot %d outside the %dx%d mesh", i, s, f.MeshWidth, f.MeshWidth)
		}
		if j, dup := seen[s]; dup {
			return fmt.Errorf("soc: tiles %d and %d both pinned to mesh slot %d", j, i, s)
		}
		seen[s] = i
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// msgQueue is the FIFO of in-flight arrival cycles for one (src,dst) pair: a
// single-producer (src tile) / single-consumer (dst tile) ring sized to the
// fabric capacity, so its buffer is never reallocated. Arrival cycles are
// accessed atomically — a TrySendFuture reservation matures in place while
// the receiver may be probing the front — and the cumulative push/pop counts
// implement the epoch capacity rule for parallel stepping (sendHasRoom).
type msgQueue struct {
	buf  []int64 // arrival cycles; futureArrival = reserved, not yet matured
	head int     // receiver-owned
	tail int     // sender-owned

	pushes int64        // sender-owned cumulative push count
	pops   atomic.Int64 // cumulative pop count, published by the receiver
	// popsCommitted is pops as of the last epoch commit (the end of the
	// previous stepped cycle); senders on other workers read it instead of
	// the live count so capacity decisions match sequential stepping.
	popsCommitted atomic.Int64
	// pushesCommitted is pushes as of the last epoch commit. Only receivers
	// of same-cycle (zero-transfer-cost) pairs read it: with latency >= 1
	// the arrival-cycle test already excludes this cycle's pushes, but a
	// zero-cost message matures the cycle it is sent, so a receiver that
	// steps before its sender must bound its view by the committed count.
	pushesCommitted atomic.Int64
	n               atomic.Int64 // current occupancy

	dirtyMark     bool // receiver-owned: queue already on its dirty list
	pushDirtyMark bool // sender-owned: queue already on its push-dirty list
	// sameCycle marks a cross-tile pair whose transfer cost is zero
	// (classified at engine start): its messages are receivable the cycle
	// they are sent, so TryRecv applies the epoch visibility rules.
	sameCycle bool
}

// push appends an arrival cycle and returns the ring slot it occupies.
// Capacity is the caller's problem (sendHasRoom); the ring can never
// overflow because occupancy is bounded by Capacity == len(buf).
func (q *msgQueue) push(at int64) (slot int) {
	slot = q.tail
	atomic.StoreInt64(&q.buf[slot], at)
	if q.tail++; q.tail == len(q.buf) {
		q.tail = 0
	}
	q.pushes++
	q.n.Add(1)
	return slot
}

// NewFabric builds a fabric with the given buffer capacity (entries per
// direction pair) and transfer latency in cycles.
func NewFabric(capacity int, latency int64) *Fabric {
	if capacity <= 0 {
		capacity = 512
	}
	return &Fabric{Capacity: capacity, Latency: latency, queues: map[[2]int]*msgQueue{}}
}

// sizeTiles presizes the per-tile statistic shards and dirty lists so the
// parallel step phase never grows a shared slice. Hand-built fabrics that
// skip it (tests) grow shards on demand — they only ever step sequentially.
func (f *Fabric) sizeTiles(n int) {
	f.Tiles = n
	f.sends = make([]int64, n)
	f.recvs = make([]int64, n)
	f.fullStall = make([]int64, n)
	f.hops = make([]int64, n)
	f.dirty = make([][]*msgQueue, n)
	f.pushDirty = make([][]*msgQueue, n)
}

// bump adds d to tile i's shard of counter s, growing the shard for
// hand-built fabrics that never called sizeTiles.
func (f *Fabric) bump(s *[]int64, i int, d int64) {
	for len(*s) <= i {
		*s = append(*s, 0)
	}
	(*s)[i] += d
}

func sumShards(s []int64) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// Sends is the total number of accepted sends across all tiles.
func (f *Fabric) Sends() int64 { return sumShards(f.sends) }

// Recvs is the total number of consumed messages across all tiles.
func (f *Fabric) Recvs() int64 { return sumShards(f.recvs) }

// FullStall counts send attempts rejected by a full buffer.
func (f *Fabric) FullStall() int64 { return sumShards(f.fullStall) }

// HopsTotal counts NoC hops traversed by accepted sends.
func (f *Fabric) HopsTotal() int64 { return sumShards(f.hops) }

// fullStallOf reads tile i's shard of the full-buffer stall counter — the
// only slice of FullStall a step by tile i can advance, which makes it the
// right bracketing sample for frozen-step replay.
func (f *Fabric) fullStallOf(i int) int64 {
	if i < len(f.fullStall) {
		return f.fullStall[i]
	}
	return 0
}

// addFullStall replays k frozen steps' worth of full-buffer stalls for tile
// i (event-horizon cycle-skip replay).
func (f *Fabric) addFullStall(i int, d int64) { f.bump(&f.fullStall, i, d) }

// queue returns the FIFO for one (src,dst) pair, allocating on first use.
// During a parallel step phase the map is read-only — every communicating
// pair was pre-created from the traces at system construction — because a
// lazy insert from a worker would race other tiles' lookups.
func (f *Fabric) queue(src, dst int) *msgQueue {
	if q := f.queues[[2]int{src, dst}]; q != nil {
		return q
	}
	if f.engine != nil {
		panic(fmt.Sprintf("soc: fabric queue %d->%d missing during parallel stepping (send not derived from the comm trace)", src, dst))
	}
	return f.ensureQueue(src, dst)
}

// ensureQueue creates (or returns) the FIFO for one (src,dst) pair.
func (f *Fabric) ensureQueue(src, dst int) *msgQueue {
	key := [2]int{src, dst}
	q := f.queues[key]
	if q == nil {
		q = &msgQueue{buf: make([]int64, f.Capacity)}
		f.queues[key] = q
	}
	return q
}

// sendHasRoom applies the capacity check. Sequentially it is the plain
// occupancy test. In a parallel step phase the sender must observe exactly
// the pops sequential tile-order stepping would have seen at this moment:
//
//   - dst steps later this cycle (dst > src): none of this cycle's pops —
//     the committed count from the last epoch boundary.
//   - dst already stepped (dst < src): all of them — wait for the
//     receiver's step to finish, then read the live count. The wait targets
//     a strictly lower tile position, so it cannot deadlock.
//   - self-sends (src == dst) always read the live count: the tile is its
//     own receiver, and waiting on itself would deadlock.
//
// A queue under committed capacity is accepted immediately: pops only shrink
// occupancy, so the committed and sequential views agree on acceptance.
func (f *Fabric) sendHasRoom(q *msgQueue, src, dst int) bool {
	cap64 := int64(f.Capacity)
	if f.engine == nil || src == dst {
		return q.pushes-q.pops.Load() < cap64
	}
	if q.pushes-q.popsCommitted.Load() < cap64 {
		return true
	}
	if dst < src {
		f.engine.waitCore(dst)
		return q.pushes-q.pops.Load() < cap64
	}
	return false
}

// markPushDirty puts a same-cycle queue on src's push-dirty list so the next
// epoch commit publishes its push count to the receiver. Latency >= 1 pairs
// never need it: their receivers see this cycle's pushes only next cycle,
// by the arrival test alone.
func (f *Fabric) markPushDirty(q *msgQueue, src int) {
	if f.engine != nil && q.sameCycle && !q.pushDirtyMark {
		q.pushDirtyMark = true
		f.pushDirty[src] = append(f.pushDirty[src], q)
	}
}

// TrySend implements core.Fabric.
func (f *Fabric) TrySend(src, dst int, now int64) bool {
	q := f.queue(src, dst)
	if !f.sendHasRoom(q, src, dst) {
		f.bump(&f.fullStall, src, 1)
		return false
	}
	lat, hops := f.transferCost(src, dst)
	q.push(now + lat)
	f.markPushDirty(q, src)
	f.bump(&f.sends, src, 1)
	f.bump(&f.hops, src, hops)
	return true
}

// futureArrival is the arrival-cycle sentinel for a reserved slot whose
// maturity cycle is not yet known (TrySendFuture).
const futureArrival = int64(1<<62 - 1)

// TrySendFuture implements core.Fabric: reserves a slot that matures when
// the returned setter is called (DeSC terminal-load-buffer sends whose data
// is still in flight). The slot index stays valid until the setter fires:
// an immature message blocks the FIFO front, so the ring cannot recycle it.
func (f *Fabric) TrySendFuture(src, dst int) (func(int64), bool) {
	q := f.queue(src, dst)
	if !f.sendHasRoom(q, src, dst) {
		f.bump(&f.fullStall, src, 1)
		return nil, false
	}
	slot := q.push(futureArrival)
	f.markPushDirty(q, src)
	lat, hops := f.transferCost(src, dst)
	f.bump(&f.sends, src, 1)
	f.bump(&f.hops, src, hops)
	return func(at int64) { atomic.StoreInt64(&q.buf[slot], at+lat) }, true
}

// TryRecv implements core.Fabric. During a parallel phase a same-cycle
// (zero-transfer-cost) queue needs explicit epoch ordering — its messages
// are receivable the cycle they are sent, so worker timing could otherwise
// decide whether one is seen:
//
//   - sender steps first sequentially (src < dst): wait for its step, then
//     the live queue is exactly the sequential view.
//   - receiver steps first (dst < src): this cycle's pushes are invisible —
//     bound the view by the committed push count — and so are maturations
//     the sender's concurrent step fires (TrySendFuture setters). On a
//     zero-cost pair every arrival value equals the cycle it was written
//     (push stores now+0; a setter stores the firing core's now+0), so
//     arrival >= now identifies exactly the writes sequential receiver-first
//     order would not have seen yet.
//
// Latency >= 1 queues need neither rule: arrivals land strictly after the
// cycle they are written, so the plain arrival test already matches
// sequential order. Self-sends are never same-cycle — the tile is its own
// sender, so program order is the sequential order.
func (f *Fabric) TryRecv(dst, src int, now int64) bool {
	q := f.queues[[2]int{src, dst}]
	if q == nil {
		return false
	}
	if f.engine != nil && q.sameCycle {
		if dst > src {
			f.engine.waitCore(src)
		} else if q.pushesCommitted.Load()-q.pops.Load() <= 0 {
			return false
		} else if atomic.LoadInt64(&q.buf[q.head]) >= now {
			return false
		}
	}
	if q.n.Load() == 0 || atomic.LoadInt64(&q.buf[q.head]) > now {
		return false
	}
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n.Add(-1)
	q.pops.Add(1)
	f.bump(&f.recvs, dst, 1)
	if f.engine != nil && !q.dirtyMark {
		q.dirtyMark = true
		f.dirty[dst] = append(f.dirty[dst], q)
	}
	return true
}

// commitEpoch publishes this cycle's pops to senders and this cycle's pushes
// (same-cycle queues only) to receivers. It runs in the serial phase at the
// per-cycle join, freezing the occupancy and visibility views the next
// cycle's capacity checks and same-cycle receives read.
func (f *Fabric) commitEpoch() {
	for i := range f.dirty {
		for j, q := range f.dirty[i] {
			q.popsCommitted.Store(q.pops.Load())
			q.dirtyMark = false
			f.dirty[i][j] = nil
		}
		f.dirty[i] = f.dirty[i][:0]
	}
	for i := range f.pushDirty {
		for j, q := range f.pushDirty[i] {
			q.pushesCommitted.Store(q.pushes)
			q.pushDirtyMark = false
			f.pushDirty[i][j] = nil
		}
		f.pushDirty[i] = f.pushDirty[i][:0]
	}
}

// prepareParallel readies every queue for parallel stepping (engine start,
// or reuse of a system that already ran sequentially): committed counters
// align with the live ones and each pair is classified as same-cycle or not
// from its transfer cost, which is constant per pair.
func (f *Fabric) prepareParallel() {
	for key, q := range f.queues {
		q.popsCommitted.Store(q.pops.Load())
		q.pushesCommitted.Store(q.pushes)
		lat, _ := f.transferCost(key[0], key[1])
		q.sameCycle = lat <= 0 && key[0] != key[1]
	}
}

// BarrierArrive implements core.Fabric: registers one tile's arrival at its
// next barrier and returns that barrier's sequence number.
func (f *Fabric) BarrierArrive(tile int) int64 {
	for len(f.arrivals) <= tile {
		f.arrivals = append(f.arrivals, 0)
	}
	f.arrivals[tile]++
	return f.arrivals[tile] - 1
}

// SetBarrierParticipants registers which tiles take part in barriers.
// System construction derives this from the traces: a tile whose trace
// executes no barrier ops never arrives, and requiring it (as the legacy
// all-tiles rule did) deadlocks the whole system until the cycle limit.
func (f *Fabric) SetBarrierParticipants(parts []bool) {
	f.participants = parts
	f.arrivals = make([]int64, len(parts))
}

// BarrierReleased implements core.Fabric: true once every participating tile
// has arrived at barrier seq.
func (f *Fabric) BarrierReleased(seq int64) bool {
	if f.participants != nil {
		for tile, in := range f.participants {
			if in && (tile >= len(f.arrivals) || f.arrivals[tile] <= seq) {
				return false
			}
		}
		return true
	}
	// Legacy rule for hand-built fabrics: every tile in [0, Tiles)
	// participates.
	if f.Tiles <= 0 {
		return true
	}
	if len(f.arrivals) < f.Tiles {
		return false
	}
	for _, a := range f.arrivals {
		if a <= seq {
			return false
		}
	}
	return true
}

// Pending reports messages still buffered anywhere.
func (f *Fabric) Pending() int {
	n := 0
	for _, q := range f.queues {
		n += int(q.n.Load())
	}
	return n
}

// frontArrivals calls fn(dst, at) with the front arrival cycle of every
// non-empty queue. Only the front can be consumed (FIFO), so it alone bounds
// the queue's next event; slots reserved by TrySendFuture (arrival unknown)
// are skipped — they mature through a load completion, which the owning
// core's horizon already covers.
func (f *Fabric) frontArrivals(fn func(dst int, at int64)) {
	for key, q := range f.queues {
		if q.n.Load() == 0 {
			continue
		}
		if at := atomic.LoadInt64(&q.buf[q.head]); at < futureArrival {
			fn(key[1], at)
		}
	}
}

// System is a complete simulated SoC: a tile list the Interleaver steps
// generically plus the shared memory hierarchy and message fabric.
type System struct {
	Name   string
	Cores  []*core.Core
	Hier   *mem.Hierarchy
	Fabric *Fabric

	// tiles is the Interleaver's step order: the accelerator manager first
	// (due invocations must retire before any core can re-invoke on the
	// same cycle), then cores in tile-ID order. tilePos maps a core/tile ID
	// to its index in tiles, for horizon bookkeeping.
	tiles   []Tile
	tilePos []int
	accel   *AccelTile

	Cycles int64

	// SteppedCycles counts Interleaver iterations actually simulated;
	// SkippedCycles counts cycles advanced arithmetically by event-horizon
	// skipping. Their sum is the simulated cycle count.
	SteppedCycles int64
	SkippedCycles int64
	// DisableCycleSkipping forces the naive cycle-by-cycle loop (the
	// equivalence-test reference and the -noskip flag).
	DisableCycleSkipping bool
	// StepWorkers is the budget of goroutines tile stepping — and the
	// private slice of the hierarchy tick — may be sharded across within
	// each Interleaver iteration (0 or 1 = inline, sequential stepping).
	// It is a budget the engine may leave unused: the effective count is
	// clamped to min(StepWorkers, GOMAXPROCS, tiles), and the engine shards
	// only while its probe windows measure sharding faster than inline
	// stepping. Results are bit-identical at any worker count and any mode
	// sequence for every topology, including directory-coherent
	// hierarchies (invalidations are staged and committed in tile order at
	// the serial join) and zero-latency fabrics (same-cycle delivery follows
	// the epoch visibility rules); see DESIGN.md §5e.
	StepWorkers int
	// ParallelPhases counts Interleaver iterations the engine stepped
	// sharded (0 when every cycle stepped inline). It and the fields below
	// are observability hooks for tests, benchmarks and reports,
	// deliberately outside Result so the stepping mode never shows in it.
	ParallelPhases int64
	// StepWorkersUsed is the last Run's effective worker count (1 = inline
	// throughout, no helper goroutines).
	StepWorkersUsed int
	// InlineNsPerCycle and ShardedNsPerCycle are the host nanoseconds per
	// stepped cycle the last Run's most recent probe windows measured in
	// each mode (0 when that mode was never probed).
	InlineNsPerCycle, ShardedNsPerCycle float64
	// pin overrides the engine's measured mode choice (PinShardedForTest).
	pin stepPin
	// recorder, when non-nil, observes accelerator invocations and certified
	// quiet windows during Run so a replay engine can re-evaluate the
	// recorded schedule under new timing parameters (see SetRecorder).
	recorder ScheduleRecorder
	// OnProgress, when non-nil, is called from the simulating goroutine at
	// interleave boundaries (every ctxCheckInterval loop iterations) with
	// where the run stands, plus once — with Final set — on every Run exit
	// path. It exists for serving frontends that stream live progress; it
	// must be cheap — the simulator does not throttle it beyond the
	// interleave cadence — and it must not retain the update.
	OnProgress func(ProgressUpdate)
}

// ProgressUpdate is a point-in-time snapshot of a running simulation handed
// to System.OnProgress: the current cycle plus the stepped/skipped split
// (stepped + skipped cycles account for every simulated cycle so far).
type ProgressUpdate struct {
	Cycle   int64
	Stepped int64
	Skipped int64
	// Final marks the terminal update each Run exit path (completion,
	// cancellation, cycle limit) emits, so the last streamed position is
	// never stale by up to the poll interval plus the final horizon jump.
	Final bool
}

// ParallelEligibility reports whether Run may shard stepping across
// workers, with a human-readable reason either way. Since the epoch-ordered
// coherence commit and same-cycle delivery rules (DESIGN.md §5e), every
// topology is eligible; what remains is the effective worker count,
// min(StepWorkers, GOMAXPROCS, tiles). An eligible Run still shards only
// while its probe windows measure sharding faster than inline stepping.
func (s *System) ParallelEligibility() (bool, string) {
	switch nw := s.stepWorkers(); {
	case s.StepWorkers <= 1:
		return false, "step-workers <= 1 requests sequential stepping"
	case len(s.tiles) <= 1:
		return false, "fewer than two tiles to shard"
	case nw <= 1:
		return false, fmt.Sprintf("GOMAXPROCS=%d leaves no processor for a second worker", runtime.GOMAXPROCS(0))
	default:
		return true, fmt.Sprintf("up to %d workers (min of step-workers %d, GOMAXPROCS %d, tiles %d), sharded while measured faster than inline",
			nw, s.StepWorkers, runtime.GOMAXPROCS(0), len(s.tiles))
	}
}

// ShardedShare is the fraction of stepped cycles the engine stepped sharded
// (ParallelPhases / SteppedCycles).
func (s *System) ShardedShare() float64 {
	if s.SteppedCycles == 0 {
		return 0
	}
	return float64(s.ParallelPhases) / float64(s.SteppedCycles)
}

// finalProgress emits the terminal progress update on a Run exit path.
func (s *System) finalProgress(cycle int64) {
	if s.OnProgress != nil {
		s.OnProgress(ProgressUpdate{Cycle: cycle, Stepped: s.SteppedCycles, Skipped: s.SkippedCycles, Final: true})
	}
}

// accelEvent schedules the release of one outstanding accelerator
// invocation at its simulated completion cycle.
type accelEvent struct {
	at   int64
	name string
}

type accelEventHeap []accelEvent

func (h accelEventHeap) Len() int { return len(h) }

// push and pop follow container/heap's exact sift sequence (equal-time events
// keep the same pop order) without boxing an accelEvent per operation.
func (h *accelEventHeap) push(v accelEvent) {
	a := append(*h, v)
	*h = a
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if a[j].at >= a[i].at {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *accelEventHeap) pop() accelEvent {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].at < a[j].at {
			j = j2
		}
		if a[j].at >= a[i].at {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	v := a[n]
	a[n] = accelEvent{}
	*h = a[:n]
	return v
}

// AccelEnergy is the total accelerator dynamic energy in pJ.
func (s *System) AccelEnergy() float64 { return s.accel.EnergyPJ }

// AccelBytes is the total traffic accelerators moved to/from memory.
func (s *System) AccelBytes() int64 { return s.accel.Bytes }

// AccelCalls is the total number of accelerator invocations.
func (s *System) AccelCalls() int64 { return s.accel.Calls }

type memPort struct {
	h    *mem.Hierarchy
	core int
}

func (p memPort) Access(addr uint64, size int, kind mem.Kind, now int64, done func(int64)) {
	p.h.AccessAt(p.core, addr, size, kind, now, done)
}

type accelPort struct {
	t *AccelTile
}

// Invoke implements core.AccelInvoker: it queries the accelerator tile for
// latency and resource usage (§IV-A) and schedules the completion, which is
// delivered through the invoking core's completion queue via done.
func (p accelPort) Invoke(name string, params []int64, now int64, done func(int64)) error {
	at, err := p.t.invoke(name, params, now)
	if err != nil {
		return err
	}
	done(at)
	return nil
}

// New builds a system from per-tile specs, a memory configuration, and
// accelerator models (may be nil).
func New(name string, tiles []TileSpec, memCfg config.MemConfig, accels map[string]AccelModel) (*System, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("soc: system %q has no tiles", name)
	}
	maxClock := 0
	for _, t := range tiles {
		if t.Cfg.ClockMHz <= 0 {
			return nil, fmt.Errorf("soc: tile %q has no clock", t.Cfg.Name)
		}
		if t.Cfg.ClockMHz > maxClock {
			maxClock = t.Cfg.ClockMHz
		}
	}
	s := &System{
		Name:  name,
		Hier:  mem.NewHierarchy(memCfg, len(tiles), maxClock),
		accel: newAccelTile(accels, maxClock),
	}
	cap := tiles[0].Cfg.MaxMessages
	s.Fabric = NewFabric(cap, 1)
	s.Fabric.sizeTiles(len(tiles))
	// Pre-create every communicating (src,dst) queue from the traces: the
	// parallel step phase must never insert into the queue map (a worker's
	// lazy insert would race other tiles' lookups).
	for pr := range commPairs(tiles) {
		s.Fabric.ensureQueue(pr[0], pr[1])
	}
	// Register barrier participants from the traces: a tile whose trace
	// executes no barrier ops must not be waited on, and participating
	// tiles with unequal barrier counts would deadlock — report that here
	// instead of burning the cycle limit.
	counts := barrierCounts(tiles)
	parts := make([]bool, len(tiles))
	ref := -1
	for i, n := range counts {
		parts[i] = n > 0
		if n == 0 {
			continue
		}
		if ref < 0 {
			ref = i
		} else if counts[ref] != n {
			return nil, fmt.Errorf(
				"soc: system %q would deadlock at a barrier: tile %d (%s) executes %d barrier ops but tile %d (%s) executes %d",
				name, ref, tiles[ref].Cfg.Name, counts[ref], i, tiles[i].Cfg.Name, n)
		}
	}
	s.Fabric.SetBarrierParticipants(parts)
	// The accelerator manager steps first each cycle: due invocations must
	// retire before any core observes outstanding[] (a core invoking at the
	// cycle a prior invocation completes must see it released).
	s.tiles = append(s.tiles, s.accel)
	s.tilePos = make([]int, len(tiles))
	for i, t := range tiles {
		c := core.New(i, t.Cfg, t.Graph, t.TT, memPort{h: s.Hier, core: i}, s.Fabric, accelPort{t: s.accel})
		c.SetClockScale(int64(maxClock), int64(t.Cfg.ClockMHz))
		s.Cores = append(s.Cores, c)
		kind := t.Kind
		if kind == "" {
			kind = t.Cfg.Name
		}
		s.tilePos[i] = len(s.tiles)
		s.tiles = append(s.tiles, &CoreTile{C: c, fabric: s.Fabric, kind: kind})
	}
	return s, nil
}

// barrierCounts returns, per tile, how many barrier ops its trace executes:
// the per-block barrier count of its kernel graph summed along its traced
// block path. Graphs are scanned once even when tiles share them (SPMD).
func barrierCounts(tiles []TileSpec) []int64 {
	perGraph := map[*ddg.Graph][]int64{}
	counts := make([]int64, len(tiles))
	for i, t := range tiles {
		per, ok := perGraph[t.Graph]
		if !ok {
			per = make([]int64, len(t.Graph.Blocks))
			for b, bg := range t.Graph.Blocks {
				for _, sn := range bg.Nodes {
					if sn.Instr.Op == ir.OpCall && sn.Instr.Callee == "barrier" {
						per[b]++
					}
				}
			}
			perGraph[t.Graph] = per
		}
		var total int64
		for _, b := range t.TT.BBPath {
			total += per[b]
		}
		counts[i] = total
	}
	return counts
}

// commPairs derives every (src,dst) message-queue pair a set of traced tiles
// will use: each tile's block path is walked consuming its comm events in
// the same per-block node order the core's launch path does, so a send by
// tile i to partner p yields pair (i,p) and a recv pair (p,i).
func commPairs(tiles []TileSpec) map[[2]int]bool {
	// Per graph, per block: the block's comm ops in node order
	// (true = send, false = recv).
	perGraph := map[*ddg.Graph][][]bool{}
	pairs := map[[2]int]bool{}
	for i, t := range tiles {
		per, ok := perGraph[t.Graph]
		if !ok {
			per = make([][]bool, len(t.Graph.Blocks))
			for b, bg := range t.Graph.Blocks {
				for _, sn := range bg.Nodes {
					if sn.Instr.Op == ir.OpCall && (sn.Instr.Callee == "send" || sn.Instr.Callee == "recv") {
						per[b] = append(per[b], sn.Instr.Callee == "send")
					}
				}
			}
			perGraph[t.Graph] = per
		}
		cursor := 0
		for _, b := range t.TT.BBPath {
			for _, isSend := range per[b] {
				if cursor >= len(t.TT.Comm) {
					break
				}
				p := int(t.TT.Comm[cursor].Partner)
				cursor++
				if p < 0 || p >= len(tiles) {
					continue
				}
				if isSend {
					pairs[[2]int{i, p}] = true
				} else {
					pairs[[2]int{p, i}] = true
				}
			}
		}
	}
	return pairs
}

// NewSPMD builds a homogeneous SPMD system: every core of cfg runs the same
// kernel graph against its own tile trace. It is a thin wrapper over the
// declarative topology builder (Build).
func NewSPMD(cfg *config.SystemConfig, g *ddg.Graph, tr *trace.Trace, accels map[string]AccelModel) (*System, error) {
	return Build(cfg, Binding{Graph: g, Trace: tr}, accels)
}

// DefaultCycleLimit guards Run(ctx, 0) against runaway simulations.
const DefaultCycleLimit = int64(1) << 40

// ctxCheckInterval is how many Interleaver iterations pass between context
// polls. Iterations are sub-microsecond even on wide systems — and stay
// around 100µs under the race detector's instrumentation — so a cancel is
// observed well inside the engine's 100ms promptness contract without paying
// a context read per simulated cycle (one ctx.Err() per 128 cycles is noise
// against the cost of stepping the cores and the hierarchy).
const ctxCheckInterval = 128

// cancelErr wraps a context error with where the simulation stood, reporting
// the effective deadline (when one was set) alongside the cycle limit so a
// timed-out run shows both budgets it was running under. The context error
// stays in the chain for errors.Is(err, context.Canceled / DeadlineExceeded).
func (s *System) cancelErr(ctx context.Context, cause error, cycle, effLimit int64) error {
	if dl, ok := ctx.Deadline(); ok && errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("soc: system %q timed out at cycle %d (deadline %s, cycle limit %d): %w",
			s.Name, cycle, dl.Format("15:04:05.000"), effLimit, cause)
	}
	return fmt.Errorf("soc: system %q canceled at cycle %d (cycle limit %d): %w",
		s.Name, cycle, effLimit, cause)
}

// Run advances the system until every tile retires its trace and the memory
// hierarchy drains, or the cycle limit is hit (limit <= 0 selects
// DefaultCycleLimit). Run honors ctx: cancellation is polled at
// horizon-jump and interleave boundaries, so a cancel or deadline returns
// promptly even mid-simulation with an error wrapping the context's, and a
// nil ctx is treated as context.Background().
//
// The Interleaver normally busy-ticks every tile and the hierarchy each
// cycle. When an iteration makes zero forward progress and every live tile
// has confirmed a frozen step, the loop instead jumps to the minimum
// next-event horizon across all components (event-horizon cycle skipping),
// advancing the per-tile clock accumulators arithmetically and replaying the
// per-cycle stall counters so results are bit-identical to the naive loop.
//
// The step engine steps the tiles and ticks the private cache stacks, inline
// on this goroutine or — with StepWorkers > 1, while measured faster —
// sharded across workers joined at the per-cycle boundary where the
// hierarchy ticks and the skipper evaluates freeze confirmation; the epoch
// rules keep results bit-identical either way (DESIGN.md §5e).
func (s *System) Run(ctx context.Context, limit int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Fabric.Validate(); err != nil {
		return err
	}
	effLimit := limit
	if effLimit <= 0 {
		effLimit = DefaultCycleLimit
	}
	ctxCountdown := int64(ctxCheckInterval)
	var maxClock int64
	uniformClocks := true
	for _, t := range s.tiles {
		if m := int64(t.ClockMHz()); m > maxClock {
			maxClock = m
		}
		if t.ClockMHz() != s.tiles[0].ClockMHz() {
			uniformClocks = false
		}
	}
	e := s.startEngine(maxClock)
	defer e.stop()
	last := uint64(s.Hier.Progress())
	for _, t := range s.tiles {
		last += t.Progress()
	}
	for cycle := int64(0); cycle <= effLimit; cycle++ {
		// Interleave-boundary cancellation poll: every ctxCheckInterval
		// iterations (stepped or jumped), not every simulated cycle.
		if ctxCountdown--; ctxCountdown <= 0 {
			ctxCountdown = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				s.finalProgress(cycle)
				return s.cancelErr(ctx, err, cycle, effLimit)
			}
			if s.OnProgress != nil {
				s.OnProgress(ProgressUpdate{Cycle: cycle, Stepped: s.SteppedCycles, Skipped: s.SkippedCycles})
			}
		}
		anyActive := e.step(cycle)
		thr0 := s.Hier.ThrottleStalls()
		e.tick(cycle)
		thrTick := s.Hier.ThrottleStalls() - thr0
		s.Cycles = cycle
		s.SteppedCycles++
		if !anyActive && !s.Hier.Busy() {
			s.finalProgress(cycle)
			return nil
		}
		if s.DisableCycleSkipping {
			continue
		}
		if e.tickProgress != last {
			// Progress invalidates every frozen-step confirmation.
			last = e.tickProgress
			e.clearIdle()
			continue
		}
		if !e.tickConfirmed {
			continue
		}
		// Every component is provably frozen: jump to the earliest cycle at
		// which any of them can act. A horizon past the limit (including a
		// true deadlock, HorizonNone everywhere) exits through the timeout
		// path immediately instead of burning the remaining cycles. The
		// horizon jump is also a cancellation boundary: a long frozen
		// stretch must not outlive its context.
		if err := ctx.Err(); err != nil {
			s.finalProgress(cycle)
			return s.cancelErr(ctx, err, cycle, effLimit)
		}
		target := s.horizon(cycle, e.slots, maxClock, effLimit)
		if target > effLimit+1 {
			target = effLimit + 1
		}
		if target <= cycle+1 {
			continue
		}
		if s.recorder != nil {
			s.maybeCertify(cycle, target, e.slots, thrTick, uniformClocks)
		}
		delta := target - 1 - cycle // whole iterations elided
		e.jump(delta)
		s.Hier.AddThrottleStalls(thrTick * delta)
		s.SkippedCycles += delta
		s.Cycles = target - 1
		cycle = target - 1 // the loop increment lands on target
	}
	s.finalProgress(s.Cycles)
	if limit <= 0 {
		return fmt.Errorf("soc: system %q exceeded the default cycle limit of %d (2^40) without completing; pass Run a larger limit if the workload is genuinely that long", s.Name, effLimit)
	}
	return fmt.Errorf("soc: system %q exceeded the cycle limit of %d without completing", s.Name, effLimit)
}

// horizon returns the earliest global cycle > now at which any component can
// change state, given that every component is frozen at now. Core-local
// events (completions, the mispredict launch release) and inbound fabric
// messages only take effect when the owning tile's clock edge arrives, so
// they are mapped through nextEdgeCycle.
func (s *System) horizon(now int64, slots []tileSlot, maxClock, effLimit int64) int64 {
	target := mem.HorizonNone
	consider := func(idx int, ev int64) {
		if ev >= mem.HorizonNone {
			return
		}
		if ev > effLimit+1 {
			ev = effLimit + 1 // keep the edge arithmetic far from overflow
		}
		u := nextEdgeCycle(now, ev, slots[idx].accum, slots[idx].stride, maxClock)
		if u < target {
			target = u
		}
	}
	for i, t := range s.tiles {
		if t.Done() {
			continue
		}
		consider(i, t.NextEvent(now))
	}
	if e := s.Hier.NextEvent(now); e < mem.HorizonNone {
		if e <= now {
			e = now + 1
		}
		if e < target {
			target = e
		}
	}
	s.Fabric.frontArrivals(func(dst int, at int64) {
		// A message already mature (at <= now) is part of the frozen state:
		// the destination observed and ignored it, so it cannot trigger a
		// future change.
		if at <= now || dst < 0 || dst >= len(s.tilePos) {
			return
		}
		i := s.tilePos[dst]
		if s.tiles[i].Done() {
			return
		}
		consider(i, at)
	})
	return target
}

// nextEdgeCycle returns the first cycle u >= max(ev, now+1) at which a core
// with accumulator a (sampled after the iteration at now), stride s, and
// system clock M takes a step. The loop's recurrence steps the core at
// now+j iff floor((a+j*s)/M) > floor((a+(j-1)*s)/M).
func nextEdgeCycle(now, ev, a, s, m int64) int64 {
	j0 := ev - now
	if j0 < 1 {
		j0 = 1
	}
	c0 := (a + (j0-1)*s) / m
	j := j0
	if need := ((c0+1)*m - a + s - 1) / s; need > j {
		j = need
	}
	return now + j
}

// EnergyBreakdown attributes dynamic energy to system components.
type EnergyBreakdown struct {
	CoresPJ float64
	L1PJ    float64
	L2PJ    float64
	LLCPJ   float64
	DRAMPJ  float64
	AccelPJ float64
}

// TotalPJ sums the components.
func (e EnergyBreakdown) TotalPJ() float64 {
	return e.CoresPJ + e.L1PJ + e.L2PJ + e.LLCPJ + e.DRAMPJ + e.AccelPJ
}

// Result summarizes a finished run.
type Result struct {
	Cycles     int64
	Instrs     int64
	IPC        float64
	EnergyPJ   float64
	Energy     EnergyBreakdown
	CoreStats  []core.Stats
	L1         mem.CacheStats
	L2         mem.CacheStats
	LLC        mem.CacheStats
	DRAM       mem.DRAMStats
	AccelCalls int64
	AccelBytes int64
}

// Result collects the system-wide estimate (§II "total system estimates").
func (s *System) Result() Result {
	r := Result{Cycles: s.Cycles}
	for _, c := range s.Cores {
		r.CoreStats = append(r.CoreStats, c.Stats)
		r.Instrs += c.Stats.Instrs
		r.EnergyPJ += c.Stats.EnergyPJ
	}
	if s.Cycles > 0 {
		r.IPC = float64(r.Instrs) / float64(s.Cycles)
	}
	r.L1 = mem.TotalStats(s.Hier.L1s)
	r.L2 = mem.TotalStats(s.Hier.L2s)
	if s.Hier.LLC != nil {
		r.LLC = s.Hier.LLC.Stats
	}
	r.DRAM = mem.DRAMStatsOf(s.Hier.DRAM)
	// Per-component dynamic energy (§III-B instruction energies plus
	// per-access memory-system costs).
	r.Energy = EnergyBreakdown{
		CoresPJ: r.EnergyPJ,
		L1PJ:    float64(r.L1.Accesses) * config.EnergyL1AccessPJ,
		L2PJ:    float64(r.L2.Accesses) * config.EnergyL2AccessPJ,
		LLCPJ:   float64(r.LLC.Accesses) * config.EnergyLLCAccessPJ,
		DRAMPJ:  float64(r.DRAM.Reads+r.DRAM.Writebacks) * config.EnergyDRAMAccessPJ,
		AccelPJ: s.accel.EnergyPJ,
	}
	r.EnergyPJ = r.Energy.TotalPJ()
	r.AccelCalls = s.accel.Calls
	r.AccelBytes = s.accel.Bytes
	return r
}
