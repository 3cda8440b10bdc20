// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI, §VII) on MosaicSim-Go's own substrates: the workload
// suite, the timing simulator, the hardware-reference model, the accelerator
// models, the DAE compiler pass, and the DNN performance models. Each
// experiment returns both a rendered table and machine-readable values so
// the CLI, the benchmarks, and the tests share one implementation.
//
// All simulation legs run through the session engine (internal/sim): one
// content-keyed artifact cache per Runner replaces the former private
// trace/DAE caches, and the sweep context cancels queued legs and
// in-flight simulations alike.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/parallel"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// Report is one regenerated artifact.
type Report struct {
	ID     string
	Title  string
	Table  *stats.Table
	Values map[string]float64
	Notes  string
}

func (r *Report) String() string {
	s := r.Table.String()
	if r.Notes != "" {
		s += "note: " + r.Notes + "\n"
	}
	return s
}

// Runner executes experiments at a chosen workload scale. A Runner's methods
// are safe for concurrent use: independent simulation legs within one
// experiment fan out across the sweep engine's worker pool
// (internal/parallel), whole experiments may run concurrently from the CLI,
// and every leg is a sim.Session sharing the Runner's artifact cache.
type Runner struct {
	Scale workloads.Scale
	// Jobs bounds the fan-out of this runner's sweeps: 0 shares the
	// process-global parallel.SetLimit budget, 1 forces serial execution,
	// n > 1 requests a dedicated pool of n workers.
	Jobs int
	// StepWorkers is the tile-stepping worker budget inside each
	// simulation leg, which the leg's engine may leave unused (results are
	// bit-identical to sequential stepping, so regenerated tables and
	// figures are unaffected). Legs that set their own value keep it.
	StepWorkers int
	// Opt recompiles every workload leg under this optimization config
	// before simulation (workloads that already carry a non-default opt
	// config keep their own). The artifact cache keys on the pass-config
	// hash, so sweeping Opt never aliases cached traces across levels.
	Opt ir.OptConfig
	// Replay routes every leg through schedule-capture timing replay
	// (internal/replay): the first leg of each (workload, structure) pair
	// records its schedule into the runner's cache and later legs whose
	// delta is timing-only are answered analytically, bit-exactly. Tables
	// and figures are unaffected by construction; ReplayCounters records how
	// many legs replayed versus fell back (cmd/experiments reports the
	// totals on stderr, keeping report output byte-stable at any -jobs).
	Replay bool

	cache *sim.Cache
}

// NewRunner builds a Runner with a private artifact cache; Small is the
// scale the paper-facing harness uses.
func NewRunner(s workloads.Scale) *Runner {
	return &Runner{Scale: s, cache: sim.NewCache()}
}

// session opens a sim.Session for one measurement leg against the runner's
// shared cache.
func (r *Runner) session(w *workloads.Workload, opts sim.Options) (*sim.Session, error) {
	if !r.Opt.IsDefault() && w.Opt.IsDefault() {
		w = w.WithOpt(r.Opt)
	}
	opts.Workload = w
	opts.Scale = r.Scale
	opts.Cache = r.cache
	if opts.StepWorkers == 0 {
		opts.StepWorkers = r.StepWorkers
	}
	opts.Replay = opts.Replay || r.Replay
	return sim.NewSession(opts)
}

// ReplayCounters snapshots the runner's schedule-replay activity (zero
// values when Replay is off).
func (r *Runner) ReplayCounters() sim.ReplayCounters {
	return r.cache.ReplayCounters()
}

// artifact returns the (cached) compile/DDG/trace bundle for a workload at a
// tile count.
func (r *Runner) artifact(ctx context.Context, w *workloads.Workload, tiles int) (*sim.Artifact, error) {
	s, err := r.session(w, sim.Options{Tiles: tiles})
	if err != nil {
		return nil, err
	}
	return s.Artifact(ctx)
}

// legs runs independent cycle-count measurements across the runner's worker
// pool, collecting results by index so callers stay deterministic.
// Cancelling ctx abandons queued legs and aborts running simulations.
func (r *Runner) legs(ctx context.Context, fns []func(context.Context) (int64, error)) ([]int64, error) {
	out := make([]int64, len(fns))
	err := parallel.ForErrCtx(ctx, r.Jobs, len(fns), func(i int) error {
		c, err := fns[i](ctx)
		out[i] = c
		return err
	})
	return out, err
}

// system builds a homogeneous Table II style system config as a declarative
// one-entry tile list.
func system(name string, core config.CoreConfig, count int, mem config.MemConfig) *config.SystemConfig {
	return &config.SystemConfig{
		Name:  name,
		Tiles: []config.TileDef{{Core: &core, Count: count}},
		Mem:   mem,
	}
}

// cyclesOn runs workload w on a homogeneous system and returns cycles.
func (r *Runner) cyclesOn(ctx context.Context, w *workloads.Workload, core config.CoreConfig, count int, mem config.MemConfig, accels map[string]soc.AccelModel) (int64, error) {
	s, err := r.session(w, sim.Options{Config: system(w.Name, core, count, mem), Accels: accels})
	if err != nil {
		return 0, err
	}
	res, err := s.Run(ctx)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// daeCycles slices a workload into access/execute pairs, traces the pair
// system, and simulates it on in-order cores (§VII-A).
func (r *Runner) daeCycles(ctx context.Context, w *workloads.Workload, pairs int, mem config.MemConfig, accels map[string]soc.AccelModel) (int64, error) {
	ino := config.InOrderCore()
	// DAE cores carry the DeSC structures: communication queues, the
	// terminal load buffer, and the store address/value buffers (§VII-A).
	// The buffers extend the little core's run-ahead well beyond its
	// pipeline depth, which is exactly DeSC's mechanism.
	ino.DecoupledSupply = true
	ino.WindowSize = 64
	ino.LSQSize = 12
	// The access/execute roles on the tile list both pick which slice each
	// tile replays and switch the session into DAE slicing.
	tiles := make([]config.TileDef, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		tiles = append(tiles,
			config.TileDef{Core: &ino, Role: config.RoleAccess},
			config.TileDef{Core: &ino, Role: config.RoleExecute},
		)
	}
	s, err := r.session(w, sim.Options{
		Config: &config.SystemConfig{Name: w.Name + "-dae", Tiles: tiles, Mem: mem},
		Accels: accels,
	})
	if err != nil {
		return 0, err
	}
	res, err := s.Run(ctx)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"fig1", "tab1", "tab2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "figopt", "storage",
	}
}

// Resolve validates an experiment id up front, failing unknown ids with a
// did-you-mean suggestion instead of mid-sweep after earlier legs have run.
func Resolve(id string) error {
	for _, known := range IDs() {
		if id == known {
			return nil
		}
	}
	if s := stats.Closest(id, IDs()); s != "" {
		return fmt.Errorf("experiments: unknown id %q (did you mean %q? have %v)", id, s, IDs())
	}
	return fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// Run executes one experiment by ID under ctx. Replay activity is observable
// through ReplayCounters (cmd/experiments prints the sweep-wide totals to
// stderr); it stays out of the report body because counter attribution under
// concurrently running experiments is interleaving-dependent, and report
// output must be byte-identical at every -jobs value.
func (r *Runner) Run(ctx context.Context, id string) (*Report, error) {
	return r.runID(ctx, id)
}

// runID dispatches one experiment by ID.
func (r *Runner) runID(ctx context.Context, id string) (*Report, error) {
	switch id {
	case "fig1":
		return Fig1(), nil
	case "tab1":
		return Tab1(), nil
	case "tab2":
		return Tab2(), nil
	case "fig5":
		return r.Fig5(ctx)
	case "fig6":
		return r.Fig6(ctx)
	case "fig7":
		return r.FigScaling(ctx, "fig7", "bfs")
	case "fig8":
		return r.FigScaling(ctx, "fig8", "sgemm")
	case "fig9":
		return r.FigScaling(ctx, "fig9", "spmv")
	case "fig10":
		return Fig10(), nil
	case "fig11":
		return r.Fig11(ctx)
	case "fig12":
		return r.Fig12(ctx)
	case "fig13":
		return r.Fig13(ctx)
	case "fig14":
		return Fig14(), nil
	case "figopt":
		return r.FigOpt(ctx)
	case "storage":
		return r.Storage(ctx)
	default:
		return nil, Resolve(id)
	}
}

// sortedKeys returns map keys sorted for deterministic rendering.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
