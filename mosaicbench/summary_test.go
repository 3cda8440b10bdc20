package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func distOf(xs ...float64) *dist {
	d := &dist{}
	for _, x := range xs {
		d.add(x)
	}
	return d
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := distOf(tc.xs...).median(); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileReportsSampleCounts(t *testing.T) {
	var xs []float64
	for i := 200; i >= 1; i-- { // added out of order on purpose
		xs = append(xs, float64(i))
	}
	d := distOf(xs...)
	for _, tc := range []struct {
		q    float64
		want pct
	}{
		{99, pct{Value: 198.01, N: 200, Beyond: 2}},
		{50, pct{Value: 100.5, N: 200, Beyond: 100}},
		{100, pct{Value: 200, N: 200, Beyond: 0}},
		{0, pct{Value: 1, N: 200, Beyond: 199}},
	} {
		got := d.percentile(tc.q)
		if !near(got.Value, tc.want.Value) || got.N != tc.want.N || got.Beyond != tc.want.Beyond {
			t.Errorf("p%v of 1..200 = %+v, want %+v", tc.q, got, tc.want)
		}
	}
	// In a small sample a single outlier moves p99 by a fraction of its
	// excess, and the count beyond says how thin the tail is.
	if got := distOf(1, 2, 3, 30).percentile(99); !near(got.Value, 29.19) || got.N != 4 || got.Beyond != 1 {
		t.Errorf("p99 of 4 samples = %+v, want 29.19 with 1 beyond", got)
	}
	if got := distOf(7).percentile(99); got != (pct{Value: 7, N: 1, Beyond: 0}) {
		t.Errorf("p99 of one sample = %+v", got)
	}
	if got := (&dist{}).percentile(99); got != (pct{}) {
		t.Errorf("p99 of no samples = %+v, want zero", got)
	}
	if got := d.percentile(99).scaled(1e3); !near(got.Value, 198010) || got.N != 200 {
		t.Errorf("scaled p99 = %+v", got)
	}
}

func TestRatioBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.failRatio() != 0 {
		t.Fatal("empty tally has a nonzero fail ratio")
	}
	tl.ok()
	tl.check(true, "never")
	tl.check(false, "mismatch %d", 7)
	tl.fail("job %s failed", "j1")
	if tl.attempted != 4 || tl.failed != 2 {
		t.Fatalf("attempted/failed = %d/%d, want 4/2", tl.attempted, tl.failed)
	}
	if got := tl.failRatio(); got != 0.5 {
		t.Errorf("fail ratio = %v, want 0.5", got)
	}
	if want := []string{"mismatch 7", "job j1 failed"}; !reflect.DeepEqual(tl.reasons, want) {
		t.Errorf("reasons = %q, want %q", tl.reasons, want)
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.fail("more")
	}
	if len(tl.reasons) != maxReasons || tl.failed != 2+2*maxReasons {
		t.Errorf("kept %d reasons of %d failures", len(tl.reasons), tl.failed)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "leg", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "build", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "run", Start: 2, End: 6},     // overlaps build: [1,6] counts once
		{ID: 4, Parent: 1, Name: "report", Start: 9, End: 12}, // reaches past its parent
		{ID: 5, Parent: 3, Name: "step", Start: 2, End: 5},
		{ID: 6, Name: "leg", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 10 - 5 - 1, 2: 2, 3: 1, 4: 3, 5: 3, 6: 1} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := selfOf(spans, "leg", "").xs; len(got) != 2 || !near(got[0], 4) || !near(got[1], 1) {
		t.Errorf("self times of legs = %v, want [4 1]", got)
	}
	if got := selfOf(spans, "run", "leg").xs; len(got) != 1 || !near(got[0], 1) {
		t.Errorf("self time of runs under legs = %v, want [1]", got)
	}
	if got := selfOf(spans, "step", "leg").n(); got != 0 {
		t.Errorf("steps are not children of legs, got %d", got)
	}
	if got := durOf(spans, "run").xs; len(got) != 1 || !near(got[0], 4) {
		t.Errorf("duration of runs = %v, want [4]", got)
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{1, 2}, {3, 4}}, 2},
		{[][2]float64{{3, 4}, {1, 3.5}}, 3},   // unsorted, overlapping
		{[][2]float64{{-5, 1}, {9, 20}}, 2},   // clipped to [0, 10]
		{[][2]float64{{2, 8}, {3, 4}}, 6},     // nested
		{[][2]float64{{11, 12}, {-3, -1}}, 0}, // outside
	} {
		if got := covered(0, 10, tc.ivs); !near(got, tc.want) {
			t.Errorf("covered(0, 10, %v) = %v, want %v", tc.ivs, got, tc.want)
		}
	}
}

func TestTracer(t *testing.T) {
	var none *tracer
	if id := none.begin("x", "", 0, time.Now()); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.finish(0, time.Now())
	if none.snapshot() != nil {
		t.Error("nil tracer kept spans")
	}

	tr := newTracer()
	t0 := tr.epoch.Add(time.Second)
	root := tr.begin("leg", "leg-0", 0, t0)
	child := tr.record("soc.run", "leg-0", root, t0, t0.Add(2*time.Second))
	tr.finish(root, t0.Add(3*time.Second))
	spans := tr.snapshot()
	if len(spans) != 2 || child != 2 || spans[1].Parent != root {
		t.Fatalf("spans = %+v", spans)
	}
	if !near(spans[0].Start, 1) || !near(spans[0].End, 4) || !near(selfTimes(spans)[root], 1) {
		t.Errorf("root span = %+v, self %v", spans[0], selfTimes(spans)[root])
	}
}

func TestDSEStream(t *testing.T) {
	const n = 1000
	a, b := dseStream(1, n), dseStream(1, n)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("the same seed drew two different streams")
	}
	if c, _ := json.Marshal(dseStream(2, n)); string(c) == string(ja) {
		t.Fatal("different seeds drew the same stream")
	}
	if len(a) != n {
		t.Fatalf("stream has %d specs, want %d", len(a), n)
	}
	shapes := len(dseKernels) * len(dseTiles)
	block := shapes * dseRounds
	seen := map[string]bool{}
	fallbacks := map[int]map[string]int{} // block -> shape -> specs moving L1
	for i, s := range a {
		if _, err := s.Normalize(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		key := fmt.Sprintf("%s/%d", s.Workload, s.Topology.Tiles[0].Count)
		if i < shapes {
			if seen[key] || s.Topology.Mem.L1.LatencyCycles != 1 || s.Topology.Mem.DRAM.BandwidthGBs != 24 {
				t.Errorf("spec %d is not the base design of a new shape: %+v", i, s)
			}
			seen[key] = true
			continue
		}
		if s.Topology.Mem.L1.LatencyCycles != 1 {
			b := (i - shapes) / block
			if b == 0 {
				t.Errorf("spec %d moves the L1 latency in the first block", i)
			}
			if fallbacks[b] == nil {
				fallbacks[b] = map[string]int{}
			}
			fallbacks[b][key]++
		}
	}
	if len(seen) != shapes {
		t.Errorf("the stream opens with %d shapes, want %d", len(seen), shapes)
	}
	for b := 1; b < (n-shapes)/block; b++ {
		if len(fallbacks[b]) != shapes {
			t.Errorf("block %d: %d shapes fall back, want every one of %d", b, len(fallbacks[b]), shapes)
		}
		for key, k := range fallbacks[b] {
			if k != 1 {
				t.Errorf("block %d: shape %s falls back %d times, want once", b, key, k)
			}
		}
	}
}
