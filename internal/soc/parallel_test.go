package soc

// Tests for the deterministic parallel stepper and the shared-state fixes it
// depends on: pure fabric latency queries, validated NoC geometry, and
// terminal progress updates on every Run exit path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mosaicsim/internal/config"
	"mosaicsim/internal/interp"
)

// TestTransferCostPure is the regression test for the transferLatency bug:
// the latency computation used to bump HopsTotal as a side effect, so every
// query — including horizon probes and rejected sends — corrupted the NoC
// statistics. The cost query must be pure; hop accounting belongs to
// accepted sends only.
func TestTransferCostPure(t *testing.T) {
	f := NewFabric(1, 1)
	f.MeshWidth = 2
	f.HopCycles = 4
	if lat, hops := f.transferCost(0, 3); lat != 9 || hops != 2 {
		t.Fatalf("transferCost(0,3) = (%d, %d), want (9, 2)", lat, hops)
	}
	if f.HopsTotal() != 0 || f.Sends() != 0 || f.FullStall() != 0 {
		t.Fatalf("latency query mutated counters: hops=%d sends=%d stalls=%d",
			f.HopsTotal(), f.Sends(), f.FullStall())
	}
	if !f.TrySend(0, 3, 0) {
		t.Fatal("send within capacity failed")
	}
	if f.HopsTotal() != 2 || f.Sends() != 1 {
		t.Errorf("accepted send: hops=%d sends=%d, want 2/1", f.HopsTotal(), f.Sends())
	}
	if f.TrySend(0, 3, 0) {
		t.Fatal("send beyond capacity succeeded")
	}
	if f.HopsTotal() != 2 {
		t.Errorf("rejected send charged hops: %d, want 2", f.HopsTotal())
	}
	if f.FullStall() != 1 {
		t.Errorf("FullStall = %d, want 1", f.FullStall())
	}
	// Horizon probes walk the queue fronts; they must not mutate anything.
	f.frontArrivals(func(int, int64) {})
	if f.HopsTotal() != 2 || f.Sends() != 1 || f.Recvs() != 0 {
		t.Errorf("horizon probe mutated counters: hops=%d sends=%d recvs=%d",
			f.HopsTotal(), f.Sends(), f.Recvs())
	}
	// A rejected future-send reservation must not charge hops either.
	if _, ok := f.TrySendFuture(0, 3); ok {
		t.Fatal("future send beyond capacity succeeded")
	}
	if f.HopsTotal() != 2 || f.FullStall() != 2 {
		t.Errorf("rejected future send: hops=%d stalls=%d, want 2/2", f.HopsTotal(), f.FullStall())
	}
}

// TestFabricValidateSlots is the regression test for the unchecked
// Slots[src]/Slots[dst] indexing: a hand-built fabric with a short,
// off-grid, or duplicated Slots table must fail Validate up front instead of
// panicking with an opaque index error mid-run.
func TestFabricValidateSlots(t *testing.T) {
	mk := func() *Fabric {
		f := NewFabric(4, 1)
		f.Tiles = 4
		f.MeshWidth = 2
		return f
	}
	cases := []struct {
		name  string
		build func() *Fabric
		want  string // substring of the error; "" = valid
	}{
		{"valid", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 3}; return f }, ""},
		{"no-slots", mk, ""},
		{"short", func() *Fabric { f := mk(); f.Slots = []int{0, 1}; return f }, "pins only 2"},
		{"off-grid", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 9}; return f }, "outside"},
		{"duplicate", func() *Fabric { f := mk(); f.Slots = []int{0, 1, 2, 2}; return f }, "both pinned"},
		{"slots-without-mesh", func() *Fabric { f := NewFabric(4, 1); f.Slots = []int{0}; return f }, "no mesh"},
		{"undersized-mesh", func() *Fabric { f := mk(); f.Tiles = 5; return f }, "cannot place"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRunRejectsBadSlots: Run must surface a bad Slots table as an error
// before the first cycle, never as a mid-run panic.
func TestRunRejectsBadSlots(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(64), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "bad-slots",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
		Mem:   config.TableIIMem(),
		NoC:   &config.NoCConfig{MeshWidth: 2, HopCycles: 1},
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Fabric.Slots = []int{0, 1} // hand-corrupted: 4 tiles, 2 slots
	err = sys.Run(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "Slots") {
		t.Fatalf("want a Slots validation error, got %v", err)
	}
}

// pingPongSrc exercises both queue directions under backpressure: tile 0
// sends up (src < dst) and tile 1 sends down (src > dst), so the parallel
// capacity rule's wait path and committed-epoch path both run.
const pingPongSrc = `
void kernel(double* A, double* out, long n) {
  long tid = tile_id();
  if (tid == 0) {
    double acc = 0.0;
    for (long i = 0; i < n; i++) {
      send(1, A[i]);
      acc = acc + recv_double(1);
    }
    out[0] = acc;
  } else {
    for (long i = 0; i < n; i++) {
      double v = recv_double(0);
      send(0, v + v);
    }
  }
}
`

// barrierStepSrc makes every tile rendezvous repeatedly so the ordered-tile
// (MaySync) serialization path runs on every iteration.
const barrierStepSrc = `
void kernel(double* A, long n) {
  long tid = tile_id();
  for (long i = 0; i < n; i++) {
    A[tid * 8] = A[tid * 8] + 1.0;
    barrier();
  }
}
`

// TestParallelSteppingDeterminism asserts the tentpole bar: byte-identical
// Result JSON for step-worker counts 1, 2, and 8, with cycle skipping both
// on and off, across fabrics with backpressure, barriers, and a NoC mesh.
func TestParallelSteppingDeterminism(t *testing.T) {
	tiny := func(cores int, maxMessages int, noc *config.NoCConfig) *config.SystemConfig {
		cc := config.InOrderCore()
		if maxMessages > 0 {
			cc.MaxMessages = maxMessages
		}
		return &config.SystemConfig{
			Name:  "par",
			Cores: []config.CoreSpec{{Core: cc, Count: cores}},
			Mem:   config.TableIIMem(),
			NoC:   noc,
		}
	}
	builds := []struct {
		name  string
		build func(t *testing.T) *System
	}{
		{"pingpong-backpressure", func(t *testing.T) *System {
			g, tr := traceSPMD(t, pingPongSrc, 2, func(m *interp.Memory) []uint64 {
				vals := make([]float64, 300)
				for i := range vals {
					vals[i] = float64(i)
				}
				return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 300}
			}, nil)
			sys, err := NewSPMD(tiny(2, 4, nil), g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"barriers-4tile", func(t *testing.T) *System {
			g, tr := traceSPMD(t, barrierStepSrc, 4, func(m *interp.Memory) []uint64 {
				return []uint64{m.AllocF64(make([]float64, 64)), 40}
			}, nil)
			sys, err := NewSPMD(tiny(4, 0, nil), g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"mesh-vecadd", func(t *testing.T) *System {
			g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(1024), nil)
			sys, err := NewSPMD(tiny(4, 0, &config.NoCConfig{MeshWidth: 2, HopCycles: 4}), g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"coherent-directory", func(t *testing.T) *System {
			// Directory coherence: cross-core invalidations ride the staged
			// commit, so worker count must not reorder them.
			g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(512), nil)
			sc := tiny(4, 0, nil)
			sc.Mem.Directory = true
			sys, err := NewSPMD(sc, g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"zero-latency-pingpong", func(t *testing.T) *System {
			// A zero-cost fabric delivers messages the cycle they are sent,
			// in both queue directions, under backpressure — the same-cycle
			// visibility rules carry the whole determinism argument.
			g, tr := traceSPMD(t, pingPongSrc, 2, func(m *interp.Memory) []uint64 {
				vals := make([]float64, 300)
				for i := range vals {
					vals[i] = float64(i)
				}
				return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 300}
			}, nil)
			sc := tiny(2, 4, nil)
			zero := int64(0)
			sc.FabricLatency = &zero
			sys, err := NewSPMD(sc, g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Fabric.Latency != 0 {
				t.Fatalf("fabric_latency knob not applied: latency = %d", sys.Fabric.Latency)
			}
			return sys
		}},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			for _, noskip := range []bool{true, false} {
				var want []byte
				for _, workers := range []int{1, 2, 8} {
					sys := b.build(t)
					sys.DisableCycleSkipping = noskip
					sys.StepWorkers = workers
					PinShardedForTest(sys)
					if err := sys.Run(context.Background(), 0); err != nil {
						t.Fatalf("run (noskip=%v, workers=%d): %v", noskip, workers, err)
					}
					if workers > 1 && sys.ParallelPhases == 0 {
						t.Fatalf("workers=%d never engaged the parallel stepper", workers)
					}
					got, err := json.Marshal(sys.Result())
					if err != nil {
						t.Fatal(err)
					}
					if workers == 1 {
						want = got
						continue
					}
					if !bytes.Equal(want, got) {
						t.Errorf("workers=%d (noskip=%v) diverged from sequential:\nseq: %s\npar: %s",
							workers, noskip, want, got)
					}
				}
			}
		})
	}
}

// TestCoherentSystemStepsParallel: directory coherence used to force the
// sequential fallback; with invalidations staged per core and committed in
// tile order at the serial join, a coherent system now shards like any
// other — parallel phases run, results match sequential byte for byte, and
// ParallelEligibility explains the remaining fallbacks.
func TestCoherentSystemStepsParallel(t *testing.T) {
	build := func(t *testing.T) *System {
		g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(256), nil)
		mc := config.TableIIMem()
		mc.Directory = true
		sys, err := NewSPMD(&config.SystemConfig{
			Name:  "coh-par",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 2}},
			Mem:   mc,
		}, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	seq := build(t)
	if ok, reason := seq.ParallelEligibility(); ok {
		t.Errorf("workers=0 reported eligible (%s)", reason)
	}
	if err := seq.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(seq.Result())
	if err != nil {
		t.Fatal(err)
	}

	par := build(t)
	par.StepWorkers = 8
	PinShardedForTest(par)
	if ok, reason := par.ParallelEligibility(); !ok {
		t.Errorf("coherent system reported ineligible: %s", reason)
	}
	if err := par.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if par.ParallelPhases == 0 {
		t.Error("coherent system never engaged the parallel stepper")
	}
	got, err := json.Marshal(par.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("coherent parallel run diverged from sequential:\nseq: %s\npar: %s", want, got)
	}
}

// sharedAccel is an accelerator whose latency grows with the invocations
// already outstanding, so a Result depends on the exact order in which tiles
// invoke and the manager releases it.
type sharedAccel struct{ base int64 }

func (a sharedAccel) Invoke(params []int64, concurrent int) (AccelResult, error) {
	return AccelResult{Cycles: a.base * int64(1+concurrent), Bytes: 64, EnergyPJ: 1}, nil
}

// accelLoopSrc has every tile interleave private memory work with
// accelerator invocations, so invocations overlap and contend.
const accelLoopSrc = `
void kernel(double* A, long n) {
  long tid = tile_id();
  for (long i = 0; i < n; i++) {
    A[tid * 64 + i] = A[tid * 64 + i] + 1.0;
    acc_shared(A, i);
  }
}
`

// TestForcedModeSwitchMatchesSequential drives the engine through mode
// switches every k stepped cycles — the switch path the probe/hold policy
// takes, exercised far more often — and asserts byte-identical Results
// against inline stepping, with skipping on and off, over the systems whose
// cross-tile state the switch must hand over exactly: staged coherence, a
// zero-latency producer/consumer pair, barriers, and a shared accelerator.
func TestForcedModeSwitchMatchesSequential(t *testing.T) {
	inorder := func(name string, cores int) *config.SystemConfig {
		return &config.SystemConfig{
			Name:  name,
			Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: cores}},
			Mem:   config.TableIIMem(),
		}
	}
	builds := []struct {
		name  string
		build func(t *testing.T) *System
	}{
		{"coherent-directory", func(t *testing.T) *System {
			g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(512), nil)
			sc := inorder("switch-coh", 4)
			sc.Mem.Directory = true
			sys, err := NewSPMD(sc, g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"zero-latency-dae", func(t *testing.T) *System {
			g, tr := traceSPMD(t, pingPongSrc, 2, func(m *interp.Memory) []uint64 {
				vals := make([]float64, 200)
				for i := range vals {
					vals[i] = float64(i)
				}
				return []uint64{m.AllocF64(vals), m.Alloc(8, 8), 200}
			}, nil)
			sc := inorder("switch-zerolat", 2)
			sc.Cores[0].Core.MaxMessages = 4
			zero := int64(0)
			sc.FabricLatency = &zero
			sys, err := NewSPMD(sc, g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"barriers", func(t *testing.T) *System {
			g, tr := traceSPMD(t, barrierStepSrc, 4, func(m *interp.Memory) []uint64 {
				return []uint64{m.AllocF64(make([]float64, 64)), 30}
			}, nil)
			sys, err := NewSPMD(inorder("switch-barrier", 4), g, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"accelerator", func(t *testing.T) *System {
			g, tr := traceSPMD(t, accelLoopSrc, 3, func(m *interp.Memory) []uint64 {
				return []uint64{m.AllocF64(make([]float64, 3*64)), 24}
			}, map[string]interp.AccFunc{"acc_shared": func(m *interp.Memory, p []int64) {}})
			sys, err := NewSPMD(&config.SystemConfig{
				Name:  "switch-accel",
				Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 3}},
				Mem:   config.TableIIMem(),
			}, g, tr, map[string]AccelModel{"acc_shared": sharedAccel{base: 40}})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			for _, noskip := range []bool{true, false} {
				seq := b.build(t)
				seq.DisableCycleSkipping = noskip
				if err := seq.Run(context.Background(), 0); err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(seq.Result())
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int64{1, 3, 64} {
					t.Run(fmt.Sprintf("noskip=%v/every=%d", noskip, k), func(t *testing.T) {
						sys := b.build(t)
						sys.DisableCycleSkipping = noskip
						sys.StepWorkers = 3
						sys.pin = stepPin{mode: pinSwitch, every: k}
						if err := sys.Run(context.Background(), 0); err != nil {
							t.Fatal(err)
						}
						if sys.ParallelPhases == 0 || sys.ParallelPhases == sys.SteppedCycles {
							t.Fatalf("no inline/sharded mix: %d of %d stepped cycles sharded", sys.ParallelPhases, sys.SteppedCycles)
						}
						got, err := json.Marshal(sys.Result())
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(want, got) {
							t.Errorf("switching every %d stepped cycles diverged from inline stepping:\nseq: %s\ngot: %s", k, want, got)
						}
					})
				}
			}
		})
	}
}

// TestStepWorkersClampedToGOMAXPROCS: a worker budget beyond the processors
// only buys goroutines that spin, so the effective worker count is clamped to
// GOMAXPROCS — with one processor, StepWorkers=8 must step inline without
// starting a single helper goroutine, and say why.
func TestStepWorkersClampedToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, tr := traceSPMD(t, spmdVecAdd, 4, vecSetup(2048), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "clamp",
		Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 4}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.StepWorkers = 8
	if ok, reason := sys.ParallelEligibility(); ok || !strings.Contains(reason, "GOMAXPROCS=1") {
		t.Errorf("ParallelEligibility() = %v, %q; want ineligible naming GOMAXPROCS=1", ok, reason)
	}
	before := runtime.NumGoroutine()
	peak, polls := 0, 0
	sys.OnProgress = func(ProgressUpdate) {
		peak = max(peak, runtime.NumGoroutine())
		polls++
	}
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if polls < 2 {
		t.Fatalf("run too short to observe: %d progress polls", polls)
	}
	if peak > before {
		t.Errorf("goroutines rose from %d to %d during the run: helpers started despite GOMAXPROCS=1", before, peak)
	}
	if sys.StepWorkersUsed != 1 || sys.ParallelPhases != 0 {
		t.Errorf("StepWorkersUsed = %d, ParallelPhases = %d; want 1 and 0", sys.StepWorkersUsed, sys.ParallelPhases)
	}
}

// TestAutoModeProbesBothModes: with more than one effective worker the
// engine steps inline through its first hold, then times both modes before
// holding one, and reports what it measured.
func TestAutoModeProbesBothModes(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2 for a second worker")
	}
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(1<<14), nil)
	sys, err := NewSPMD(&config.SystemConfig{
		Name:  "auto",
		Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 2}},
		Mem:   config.TableIIMem(),
	}, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.StepWorkers = 2
	sys.DisableCycleSkipping = true // every cycle is a stepped cycle
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if first := int64(probeWindow * (holdWindows + probeWindows)); sys.SteppedCycles < first {
		t.Fatalf("run too short for the first probe: %d stepped cycles, want >= %d", sys.SteppedCycles, first)
	}
	if sys.StepWorkersUsed != 2 || sys.InlineNsPerCycle <= 0 || sys.ShardedNsPerCycle <= 0 {
		t.Errorf("StepWorkersUsed = %d, probe inline %g ns, sharded %g ns; want 2 workers and both modes timed",
			sys.StepWorkersUsed, sys.InlineNsPerCycle, sys.ShardedNsPerCycle)
	}
	if sys.ParallelPhases < probeWindow*probeWindows/2 {
		t.Errorf("ParallelPhases = %d, want at least the probe's sharded windows", sys.ParallelPhases)
	}
}

// TestTileSlotFillsOneCacheLine: per-tile stepping state is written by
// whichever worker owns the tile every cycle; one slot per 64-byte line keeps
// workers off each other's lines.
func TestTileSlotFillsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(tileSlot{}); n != 64 {
		t.Fatalf("tileSlot is %d bytes, want 64", n)
	}
}

// TestRunEmitsTerminalProgress is the regression test for the stale-progress
// bug: OnProgress used to fire only inside the every-128-iteration poll, so
// a finished (or canceled, or limited) run's last streamed update lagged the
// final state by up to the poll interval plus the last horizon jump. Every
// exit path must now emit one final update.
func TestRunEmitsTerminalProgress(t *testing.T) {
	build := func(t *testing.T) *System {
		g, tr := traceSPMD(t, spmdVecAdd, 1, vecSetup(2048), nil)
		sys, err := NewSPMD(&config.SystemConfig{
			Name:  "final-progress",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
			Mem:   config.TableIIMem(),
		}, g, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(t *testing.T, ups []ProgressUpdate, wantCycle int64) {
		t.Helper()
		if len(ups) == 0 {
			t.Fatal("OnProgress never fired")
		}
		last := ups[len(ups)-1]
		if !last.Final {
			t.Fatalf("last update is not Final: %+v", last)
		}
		if wantCycle >= 0 && last.Cycle != wantCycle {
			t.Fatalf("final update cycle = %d, want %d", last.Cycle, wantCycle)
		}
		for _, u := range ups[:len(ups)-1] {
			if u.Final {
				t.Fatalf("non-terminal update marked Final: %+v", u)
			}
		}
	}
	t.Run("done", func(t *testing.T) {
		sys := build(t)
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		check(t, ups, sys.Cycles)
	})
	t.Run("limit", func(t *testing.T) {
		sys := build(t)
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(context.Background(), 500); err == nil {
			t.Fatal("expected a cycle-limit error")
		}
		check(t, ups, sys.Cycles)
	})
	t.Run("cancel", func(t *testing.T) {
		sys := build(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ups []ProgressUpdate
		sys.OnProgress = func(u ProgressUpdate) { ups = append(ups, u) }
		if err := sys.Run(ctx, 0); err == nil {
			t.Fatal("expected a cancellation error")
		}
		check(t, ups, -1)
	})
}
