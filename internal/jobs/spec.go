package jobs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// Spec is one simulation submission: the workload plus the scale, tile, and
// system options the CLI exposes as flags. The zero value of every optional
// field selects the same default the CLI would (small scale, 1 tile, OoO
// cores, Table II memory, SPMD).
type Spec struct {
	// Workload names a built-in workload (see `mosaicsim -list`). Required.
	Workload string `json:"workload"`
	// Scale is the input size: tiny, small, or large (default small).
	Scale string `json:"scale,omitempty"`
	// Tiles is the SPMD tile count (default 1).
	Tiles int `json:"tiles,omitempty"`
	// Core is the tile core model: ooo, inorder, or xeon (default ooo).
	Core string `json:"core,omitempty"`
	// Mem selects the memory hierarchy: tab2 (DAE study) or tab1
	// (Xeon-like); default tab2.
	Mem string `json:"mem,omitempty"`
	// Slicing maps the kernel onto tiles: spmd or dae (default spmd).
	Slicing string `json:"slicing,omitempty"`
	// Topology is an inline declarative system description (heterogeneous
	// tile list, memory, NoC). It replaces Core/Mem/Tiles; setting both is
	// an error. Access/execute roles in the topology select DAE slicing.
	Topology *config.SystemConfig `json:"topology,omitempty"`
	// Preset names a built-in topology (see config.TopologyPresets):
	// spmd-xeon, dae-pair, core-accel. Mutually exclusive with Topology.
	Preset string `json:"preset,omitempty"`
	// Opt names the compiler optimization level for the workload build:
	// O0, O1, or O2 (default O0). Different levels never share cached
	// artifacts or recorded schedules — the cache key carries the
	// pass-config hash.
	Opt string `json:"opt,omitempty"`
	// Passes overrides Opt with an explicit comma-separated pass list
	// (e.g. "constfold,dce"). Mutually exclusive with Opt.
	Passes string `json:"passes,omitempty"`
	// Unroll sets the loop-unroll factor when the unroll pass runs
	// (0 = the pipeline default).
	Unroll int `json:"unroll,omitempty"`
	// Limit bounds the simulated cycles (0 = the engine default).
	Limit int64 `json:"limit,omitempty"`
	// NoSkip disables event-horizon cycle skipping.
	NoSkip bool `json:"noskip,omitempty"`
	// Replay controls schedule-capture timing replay for this job: answer a
	// timing-only re-submission analytically from a recorded schedule
	// (bit-identical to full simulation). Unset inherits the daemon's
	// default (Options.Replay).
	Replay *bool `json:"replay,omitempty"`
	// StepWorkers is the budget of goroutines tile stepping may be sharded
	// across; the engine may leave it unused (it clamps to GOMAXPROCS and
	// the tile count, and shards only while measured faster than inline
	// stepping). Results are bit-identical to sequential; 1 forces
	// sequential. 0 inherits the daemon's default (Options.StepWorkers).
	StepWorkers int `json:"step_workers,omitempty"`
	// Timeout is an optional per-job wall-clock budget as a Go duration
	// string ("30s"); the manager's per-job timeout still caps it.
	Timeout string `json:"timeout,omitempty"`
	// Tenant attributes the job to a client for quota accounting and
	// per-tenant metrics. Servers fill it from the X-Mosaic-Tenant header
	// when the body leaves it empty ("" = the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the admission class: high, normal, or low (default
	// normal). Higher classes always dequeue first; within a class the
	// queue is FIFO.
	Priority string `json:"priority,omitempty"`
}

// suggest renders a validation error with a did-you-mean candidate drawn
// from the allowed values, mirroring workloads.Resolve's behavior.
func suggest(field, got string, allowed []string) error {
	if s := stats.Closest(got, allowed); s != "" {
		return fmt.Errorf("jobs: unknown %s %q (did you mean %q?)", field, got, s)
	}
	return fmt.Errorf("jobs: unknown %s %q (allowed: %v)", field, got, allowed)
}

// Normalize fills defaults and validates every field up front — an invalid
// submission is rejected at admission with a did-you-mean error, never after
// it has consumed a queue slot. It returns the normalized spec.
func (s Spec) Normalize() (Spec, error) {
	if s.Workload == "" {
		return s, fmt.Errorf("jobs: spec needs a workload (see mosaicsim -list)")
	}
	if _, err := workloads.Resolve(s.Workload); err != nil {
		return s, fmt.Errorf("jobs: %w", err)
	}
	if s.Scale == "" {
		s.Scale = "small"
	}
	switch s.Scale {
	case "tiny", "small", "large":
	default:
		return s, suggest("scale", s.Scale, []string{"tiny", "small", "large"})
	}
	if s.Topology != nil || s.Preset != "" {
		if s.Topology != nil && s.Preset != "" {
			return s, fmt.Errorf("jobs: topology and preset are mutually exclusive")
		}
		if s.Tiles != 0 || s.Core != "" || s.Mem != "" || s.Slicing != "" {
			return s, fmt.Errorf("jobs: tiles/core/mem/slicing are implied by the topology; drop them")
		}
		sc, err := s.topology()
		if err != nil {
			return s, fmt.Errorf("jobs: %w", err)
		}
		if err := sc.Validate(); err != nil {
			return s, fmt.Errorf("jobs: %w", err)
		}
		// Resolve tile kinds now so an unknown kind is rejected at
		// admission with a did-you-mean, not after queuing.
		if _, err := soc.ExpandTiles(sc); err != nil {
			return s, fmt.Errorf("jobs: %w", err)
		}
	} else {
		if s.Tiles == 0 {
			s.Tiles = 1
		}
		if s.Tiles < 0 {
			return s, fmt.Errorf("jobs: negative tile count %d", s.Tiles)
		}
		if s.Core == "" {
			s.Core = "ooo"
		}
		switch s.Core {
		case "ooo", "inorder", "xeon":
		default:
			return s, suggest("core", s.Core, []string{"ooo", "inorder", "xeon"})
		}
		if s.Mem == "" {
			s.Mem = "tab2"
		}
		switch s.Mem {
		case "tab1", "tab2":
		default:
			return s, suggest("mem", s.Mem, []string{"tab1", "tab2"})
		}
		if s.Slicing == "" {
			s.Slicing = "spmd"
		}
		switch s.Slicing {
		case "spmd":
		case "dae":
			if s.Tiles%2 != 0 {
				return s, fmt.Errorf("jobs: dae slicing needs an even tile count (access/execute pairs), got %d", s.Tiles)
			}
		default:
			return s, suggest("slicing", s.Slicing, []string{"spmd", "dae"})
		}
	}
	if s.Opt != "" && s.Passes != "" {
		return s, fmt.Errorf("jobs: opt and passes are mutually exclusive")
	}
	if _, err := ir.ParseOptConfig(s.Opt, s.Passes, s.Unroll); err != nil {
		return s, fmt.Errorf("jobs: %w", err)
	}
	if s.Limit < 0 {
		return s, fmt.Errorf("jobs: negative cycle limit %d", s.Limit)
	}
	if s.StepWorkers < 0 {
		return s, fmt.Errorf("jobs: negative step-worker count %d", s.StepWorkers)
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil {
			return s, fmt.Errorf("jobs: bad timeout %q: %w", s.Timeout, err)
		}
		if d <= 0 {
			return s, fmt.Errorf("jobs: non-positive timeout %q", s.Timeout)
		}
	}
	if s.Priority == "" {
		s.Priority = PriorityNormal
	}
	switch s.Priority {
	case PriorityHigh, PriorityNormal, PriorityLow:
	default:
		return s, suggest("priority", s.Priority, []string{PriorityHigh, PriorityNormal, PriorityLow})
	}
	return s, nil
}

// AffinityHash is a stable hash over the spec fields that select cached
// artifacts — workload, scale, shape, and the opt pipeline, the same
// dimensions sim.Key carries. Two specs with equal hashes reuse each
// other's traces and recorded schedules, so the coordinator prefers
// leasing a job to a worker whose cache is already warm for its hash.
// Tenant, priority, timeout, limit, and execution knobs are deliberately
// excluded: they change scheduling or bounds, not artifacts.
func (s Spec) AffinityHash() uint64 {
	h := fnv.New64a()
	for _, f := range []string{s.Workload, s.Scale, s.Core, s.Mem, s.Slicing, s.Preset, s.Opt, s.Passes} {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "%d|%d", s.Tiles, s.Unroll)
	if s.Topology != nil {
		if b, err := json.Marshal(s.Topology); err == nil {
			h.Write(b)
		}
	}
	return h.Sum64()
}

// timeout returns the spec's parsed per-job budget (0 = none). The spec must
// already be normalized.
func (s Spec) timeout() time.Duration {
	if s.Timeout == "" {
		return 0
	}
	d, _ := time.ParseDuration(s.Timeout)
	return d
}

// topology resolves the spec's declarative system description: the inline
// Topology if present, else the named Preset. It returns nil when the spec
// uses the flat Tiles/Core/Mem form.
func (s Spec) topology() (*config.SystemConfig, error) {
	if s.Topology != nil {
		return s.Topology, nil
	}
	if s.Preset != "" {
		return config.TopologyPreset(s.Preset)
	}
	return nil, nil
}

// scale maps the normalized scale name onto the workloads enum.
func (s Spec) scale() workloads.Scale {
	switch s.Scale {
	case "tiny":
		return workloads.Tiny
	case "large":
		return workloads.Large
	default:
		return workloads.Small
	}
}

// SessionOptions lowers a normalized spec into the engine options the CLI
// would build for the same flags, bound to the given shared cache. Keeping
// this lowering in one place is what makes the HTTP path and the CLI path
// byte-identical for the same submission (the golden seam test).
func (s Spec) SessionOptions(cache *sim.Cache) (sim.Options, error) {
	w, err := workloads.Resolve(s.Workload)
	if err != nil {
		return sim.Options{}, err
	}
	opt, err := ir.ParseOptConfig(s.Opt, s.Passes, s.Unroll)
	if err != nil {
		return sim.Options{}, err
	}
	if !opt.IsDefault() {
		w = w.WithOpt(opt)
	}
	if sc, err := s.topology(); err != nil {
		return sim.Options{}, err
	} else if sc != nil {
		if err := sc.Validate(); err != nil {
			return sim.Options{}, err
		}
		refClock, err := soc.ReferenceClockMHz(sc)
		if err != nil {
			return sim.Options{}, err
		}
		// Slicing is inferred by the session from the topology's roles.
		return sim.Options{
			Workload:             w,
			Scale:                s.scale(),
			Config:               sc,
			Accels:               workloads.DefaultAccelModels(refClock),
			Limit:                s.Limit,
			DisableCycleSkipping: s.NoSkip,
			Replay:               s.Replay != nil && *s.Replay,
			StepWorkers:          s.StepWorkers,
			Cache:                cache,
		}, nil
	}
	var core config.CoreConfig
	switch s.Core {
	case "inorder":
		core = config.InOrderCore()
	case "xeon":
		core = config.XeonLikeCore()
	default:
		core = config.OutOfOrderCore()
	}
	mem := config.TableIIMem()
	if s.Mem == "tab1" {
		mem = config.TableIMem()
	}
	sc := &config.SystemConfig{
		Name:  fmt.Sprintf("%s-%dx%s", w.Name, s.Tiles, s.Core),
		Cores: []config.CoreSpec{{Core: core, Count: s.Tiles}},
		Mem:   mem,
	}
	if err := sc.Validate(); err != nil {
		return sim.Options{}, err
	}
	slicing := sim.SliceNone
	if s.Slicing == "dae" {
		slicing = sim.SliceDAE
	}
	return sim.Options{
		Workload:             w,
		Scale:                s.scale(),
		Config:               sc,
		Slicing:              slicing,
		Accels:               workloads.DefaultAccelModels(sc.Cores[0].Core.ClockMHz),
		Limit:                s.Limit,
		DisableCycleSkipping: s.NoSkip,
		Replay:               s.Replay != nil && *s.Replay,
		StepWorkers:          s.StepWorkers,
		Cache:                cache,
	}, nil
}
