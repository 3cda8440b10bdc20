package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// dist is a sample of one timing or rate, summarised by its median and a
// tail percentile that carries its sample count.
type dist struct {
	xs []float64
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for an empty sample.
func (d *dist) median() float64 { return d.percentile(50).Value }

// pct is a percentile together with the sample it came from: N values in
// all, Beyond of them above the reported value.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the q-th percentile (0 <= q <= 100), interpolating
// linearly between the two nearest order statistics: in a sample of fewer
// than a hundred, p99 lies between the two largest values rather than on
// the largest alone.
func (d *dist) percentile(q float64) pct {
	s := d.sorted()
	n := len(s)
	if n == 0 {
		return pct{}
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	v := s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	above := sort.Search(n, func(i int) bool { return s[i] > v })
	return pct{Value: v, N: n, Beyond: n - above}
}

// scaled converts the percentile's value to another unit.
func (p pct) scaled(k float64) pct {
	p.Value *= k
	return p
}

// ratio is num/den, or 0 when the base is empty. Every ratio the benchmark
// prints names its base next to it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts operations attempted and failed. A failed job, a failed
// result check and every correctness-gate mismatch count as one failed
// operation each; the first few reasons are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

const maxReasons = 8

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one operation that failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// failRatio is failed operations over attempted ones.
func (t *tally) failRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.failed), float64(t.attempted))
}

// span is one timed call the benchmark made into a layer: name, interval,
// the span that caused it (0 for a root), and the leg or job it belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Group  string  `json:"group,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs call the same code with no spans kept.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a span over [start, end] and returns its ID (0 when t is nil).
func (t *tracer) record(name, group string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Group: group,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name, group string, parent int, start time.Time) int {
	return t.record(name, group, parent, start, start)
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Seconds()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child reaching outside its parent counts only inside it).
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, end := 0.0, lo
	for _, iv := range clipped {
		a := math.Max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfOf collects the self times of every span with the given name whose
// parent is named parent ("" accepts any parent).
func selfOf(spans []span, name, parent string) *dist {
	self := selfTimes(spans)
	byID := make(map[int]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	d := &dist{}
	for _, s := range spans {
		if s.Name == name && (parent == "" || byID[s.Parent] == parent) {
			d.add(self[s.ID])
		}
	}
	return d
}

// durOf collects the durations of every span with the given name.
func durOf(spans []span, name string) *dist {
	d := &dist{}
	for _, s := range spans {
		if s.Name == name {
			d.add(s.dur())
		}
	}
	return d
}
