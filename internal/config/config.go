// Package config defines MosaicSim-Go's core, memory, and system
// configuration ("a comprehensive set of both core and system configuration
// files", §VI-B), JSON load/save, and presets reproducing the paper's
// Table I evaluation system and Table II DAE case-study parameters.
package config

import (
	"encoding/json"
	"fmt"
	"os"
)

// InstrClass buckets instructions for latency, energy, and functional-unit
// accounting.
type InstrClass uint8

// Instruction classes.
const (
	ClassIntALU InstrClass = iota
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassMem     // loads/stores/atomics: dynamic latency from the hierarchy
	ClassBranch  // terminators
	ClassCast    // conversions / moves
	ClassSpecial // intrinsic calls, send/recv
	NumClasses
)

var classNames = [NumClasses]string{
	"int_alu", "int_mul", "int_div", "fp_alu", "fp_mul", "fp_div",
	"mem", "branch", "cast", "special",
}

func (c InstrClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// BranchPredictor selects the control-speculation model (§III-C). The paper's
// current release supports static and perfect prediction.
type BranchPredictor string

// Branch predictor kinds.
const (
	// BranchStatic predicts backward-taken/forward-not-taken and pays the
	// misprediction penalty when the traced path disagrees.
	BranchStatic BranchPredictor = "static"
	// BranchPerfect always follows the traced path with no penalty.
	BranchPerfect BranchPredictor = "perfect"
	// BranchDynamic is a gshare predictor (global history XOR branch PC into
	// a table of 2-bit counters) trained on the dynamic stream — the
	// "more realistic dynamic branch predictor" the paper defers to future
	// work (§III-C, footnote 2).
	BranchDynamic BranchPredictor = "dynamic"
	// BranchNone waits for the terminator to complete before launching the
	// next DBB (no control speculation at all).
	BranchNone BranchPredictor = "none"
)

// CoreConfig holds the microarchitectural resource limits of one core tile
// (§III-A).
type CoreConfig struct {
	Name string `json:"name"`
	// IssueWidth is the superscalar width W.
	IssueWidth int `json:"issue_width"`
	// WindowSize is the sliding instruction window (ROB) size.
	WindowSize int `json:"window_size"`
	// LSQSize is the Memory Address Orderer capacity.
	LSQSize int `json:"lsq_size"`
	// MaxLiveDBB caps live DBBs per static basic block (0 = unlimited). For
	// accelerator tiles this mimics replicated loop-body circuits (§III-A).
	MaxLiveDBB int `json:"max_live_dbb"`
	// FunctionalUnits caps in-flight instructions per class (0 = unlimited).
	FunctionalUnits map[string]int `json:"functional_units,omitempty"`
	// Branch selects the control-speculation model.
	Branch BranchPredictor `json:"branch"`
	// MispredictPenalty is the extra launch latency on a mispredicted DBB.
	MispredictPenalty int64 `json:"mispredict_penalty"`
	// PerfectAliasSpec enables perfect memory-alias speculation from the
	// trace (§III-C).
	PerfectAliasSpec bool `json:"perfect_alias_spec"`
	// InOrder selects in-order issue with out-of-order completion
	// (scoreboarded stall-on-use); false models full out-of-order issue
	// within the window.
	InOrder bool `json:"in_order"`
	// DecoupledSupply enables the DeSC structures of §VII-A: the terminal
	// load buffer (loads feeding sends are fire-and-forget) and the store
	// value buffer (stores drain when their communicated value arrives,
	// without stalling the core).
	DecoupledSupply bool `json:"decoupled_supply"`
	// ClockMHz is the tile clock; the Interleaver scales tiles with
	// different clocks (§II).
	ClockMHz int `json:"clock_mhz"`
	// AreaMM2 is the tile area from McPAT-style tables (Table II).
	AreaMM2 float64 `json:"area_mm2"`
	// Latencies overrides per-class fixed instruction latencies in cycles;
	// missing classes use defaults.
	Latencies map[string]int64 `json:"latencies,omitempty"`
	// MaxMessages is the inter-tile communication buffer capacity in
	// entries (Table II "Comm. Buffer Sizes"); 0 = default 512.
	MaxMessages int `json:"max_messages"`
	// AtomicExtraLatency adds cycles to every atomic RMW completion. The
	// hardware-reference model uses it for locked-operation and contention
	// costs that MosaicSim's memory system does not capture (§VI-A: BFS
	// accuracy suffers because atomics are "difficult to accurately model").
	AtomicExtraLatency int64 `json:"atomic_extra_latency"`
}

// DefaultLatencies are the fixed per-class instruction latencies in cycles.
var DefaultLatencies = map[InstrClass]int64{
	ClassIntALU: 1, ClassIntMul: 3, ClassIntDiv: 18,
	ClassFPALU: 3, ClassFPMul: 4, ClassFPDiv: 18,
	ClassBranch: 1, ClassCast: 1, ClassSpecial: 1,
}

// Latency resolves the fixed latency for a class under this config.
func (c *CoreConfig) Latency(cl InstrClass) int64 {
	if c.Latencies != nil {
		if v, ok := c.Latencies[cl.String()]; ok {
			return v
		}
	}
	if v, ok := DefaultLatencies[cl]; ok {
		return v
	}
	return 1
}

// FULimit resolves the functional-unit cap for a class (0 = unlimited).
func (c *CoreConfig) FULimit(cl InstrClass) int {
	if c.FunctionalUnits == nil {
		return 0
	}
	return c.FunctionalUnits[cl.String()]
}

// CacheConfig configures one cache (§V-A).
type CacheConfig struct {
	Name      string `json:"name"`
	SizeKB    int    `json:"size_kb"`
	LineBytes int    `json:"line_bytes"`
	Assoc     int    `json:"assoc"`
	// LatencyCycles is the access (hit/tag) latency.
	LatencyCycles int64 `json:"latency_cycles"`
	// MSHRs is the miss-status holding register count (coalescing).
	MSHRs int `json:"mshrs"`
	// PortsPerCycle bounds requests accepted per cycle.
	PortsPerCycle int `json:"ports_per_cycle"`
	// PrefetchDegree is the number of lines prefetched on a detected stream
	// (0 disables the prefetcher).
	PrefetchDegree int `json:"prefetch_degree"`
}

// DRAMModel selects the memory model (§V-B).
type DRAMModel string

// DRAM model kinds.
const (
	// DRAMSimple is the paper's in-house SimpleDRAM: minimum latency plus
	// epoch-based maximum-bandwidth throttling.
	DRAMSimple DRAMModel = "simple"
	// DRAMBanked is the cycle-accurate bank/row model standing in for
	// DRAMSim2: slower to simulate, bank-conflict- and row-locality-aware.
	DRAMBanked DRAMModel = "banked"
)

// DRAMConfig configures the DRAM model.
type DRAMConfig struct {
	Model DRAMModel `json:"model"`
	// MinLatency is SimpleDRAM's fixed minimum latency in core cycles.
	MinLatency int64 `json:"min_latency"`
	// BandwidthGBs is the peak bandwidth enforced per epoch.
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// EpochCycles is the bandwidth-accounting window.
	EpochCycles int64 `json:"epoch_cycles"`
	// Banked-model timing (DDR-style, in cycles).
	Channels int   `json:"channels"`
	Banks    int   `json:"banks"`
	RowBytes int   `json:"row_bytes"`
	TCAS     int64 `json:"t_cas"`
	TRCD     int64 `json:"t_rcd"`
	TRP      int64 `json:"t_rp"`
	TBurst   int64 `json:"t_burst"`
}

// MemConfig is a complete memory hierarchy configuration.
type MemConfig struct {
	L1   CacheConfig  `json:"l1"`
	L2   *CacheConfig `json:"l2,omitempty"`  // private per-core, optional
	LLC  *CacheConfig `json:"llc,omitempty"` // shared, optional
	DRAM DRAMConfig   `json:"dram"`
	// Directory enables the MSI-style directory coherence extension over
	// the private cache stacks (§V-A future work).
	Directory bool `json:"directory,omitempty"`
	// DirInvCycles is the invalidation round-trip latency (default 30).
	DirInvCycles int64 `json:"dir_inv_cycles,omitempty"`
}

// NoCConfig arranges tiles on a 2D mesh whose links add per-hop latency to
// inter-tile messages (§V-A's future-work "message module").
type NoCConfig struct {
	MeshWidth int   `json:"mesh_width"`
	HopCycles int64 `json:"hop_cycles"`
}

// SystemConfig describes a whole simulated SoC. Tiles are declared either
// through Cores (the legacy homogeneous form: full inline core configs) or
// through Tiles (the declarative form: preset kinds with overrides, roles,
// and NoC placement); exactly one of the two must be set.
type SystemConfig struct {
	Name  string     `json:"name"`
	Cores []CoreSpec `json:"cores,omitempty"`
	Tiles []TileDef  `json:"tiles,omitempty"`
	Mem   MemConfig  `json:"mem"`
	NoC   *NoCConfig `json:"noc,omitempty"`
	// StepWorkers is the budget of goroutines tile stepping may be sharded
	// across per simulation, joined at every cycle boundary. It is a budget
	// the engine may leave unused: it clamps the count to min(StepWorkers,
	// GOMAXPROCS, tiles) and shards only while it measures sharding faster
	// than inline stepping. Results are bit-identical to sequential stepping
	// for every topology — directory-coherent hierarchies and zero-latency
	// fabrics included (their cross-core effects are epoch-ordered;
	// DESIGN.md §5e). 0 or 1 steps sequentially.
	StepWorkers int `json:"step_workers,omitempty"`
	// FabricLatency overrides the base inter-tile transfer latency in
	// cycles (NoC hop costs add on top). nil keeps the default of 1; 0
	// models an idealized same-cycle fabric.
	FabricLatency *int64 `json:"fabric_latency,omitempty"`
}

// EffectiveFabricLatency resolves the FabricLatency override (default 1).
func (sc *SystemConfig) EffectiveFabricLatency() int64 {
	if sc.FabricLatency != nil {
		return *sc.FabricLatency
	}
	return 1
}

// CoreSpec instantiates Count copies of a core configuration.
type CoreSpec struct {
	Core  CoreConfig `json:"core"`
	Count int        `json:"count"`
}

// Tile roles. A role binds a tile to one of the kernel artifacts the
// topology is simulated against: RoleSPMD tiles replay the whole kernel,
// RoleAccess/RoleExecute tiles replay the DAE slices (§VII-A). Access and
// execute tiles must alternate access-first — tile 2i pairs with tile 2i+1,
// which is the pairing the DAE slicer's tile_id()/2 rewriting assumes.
const (
	RoleSPMD    = "spmd"
	RoleAccess  = "access"
	RoleExecute = "execute"
)

// TileDef declares Count tiles of one kind in a heterogeneous topology.
type TileDef struct {
	// Kind names a registered tile preset ("ooo", "inorder", "xeon",
	// "accel", ...); the registry lives in internal/soc. Ignored when Core
	// is set.
	Kind string `json:"kind,omitempty"`
	// Count instantiates that many identical tiles (0 means 1).
	Count int `json:"count,omitempty"`
	// Role selects the kernel artifact the tile replays; empty means
	// RoleSPMD.
	Role string `json:"role,omitempty"`
	// ClockMHz overrides the preset's clock.
	ClockMHz int `json:"clock_mhz,omitempty"`
	// MeshSlot pins the tile to a fixed slot on the NoC mesh (row-major).
	// Requires Count <= 1; when any tile pins a slot, all must.
	MeshSlot *int `json:"mesh_slot,omitempty"`
	// Overrides is a partial CoreConfig JSON object merged field-by-field
	// onto the preset (e.g. {"issue_width": 2, "max_live_dbb": 4}).
	Overrides json.RawMessage `json:"overrides,omitempty"`
	// Core is a complete explicit core configuration, bypassing Kind and
	// Overrides.
	Core *CoreConfig `json:"core,omitempty"`
}

// TileCount is the number of tiles the config instantiates, over either
// declaration form.
func (sc *SystemConfig) TileCount() int {
	n := 0
	for _, cs := range sc.Cores {
		n += cs.Count
	}
	for _, td := range sc.Tiles {
		n += td.count()
	}
	return n
}

// count is the effective tile count of one TileDef.
func (td *TileDef) count() int {
	if td.Count == 0 {
		return 1
	}
	return td.Count
}

// Load reads a SystemConfig from a JSON file.
func Load(path string) (*SystemConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc SystemConfig
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("config %s: %w", path, err)
	}
	return &sc, nil
}

// Save writes a SystemConfig as indented JSON.
func (sc *SystemConfig) Save(path string) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks a configuration for structural errors. Tile-kind names
// are resolved later, by the tile registry in internal/soc, which owns the
// set of registered kinds.
func (sc *SystemConfig) Validate() error {
	if len(sc.Cores) == 0 && len(sc.Tiles) == 0 {
		return fmt.Errorf("config %q: no cores or tiles", sc.Name)
	}
	if len(sc.Cores) > 0 && len(sc.Tiles) > 0 {
		return fmt.Errorf("config %q: declare tiles through either cores or tiles, not both", sc.Name)
	}
	if sc.StepWorkers < 0 {
		return fmt.Errorf("config %q: step_workers must be >= 0, got %d", sc.Name, sc.StepWorkers)
	}
	if sc.FabricLatency != nil && *sc.FabricLatency < 0 {
		return fmt.Errorf("config %q: fabric_latency must be >= 0, got %d", sc.Name, *sc.FabricLatency)
	}
	for _, cs := range sc.Cores {
		if cs.Count <= 0 {
			return fmt.Errorf("config %q: core %q count must be positive", sc.Name, cs.Core.Name)
		}
		if cs.Core.IssueWidth <= 0 || cs.Core.WindowSize <= 0 || cs.Core.LSQSize <= 0 {
			return fmt.Errorf("config %q: core %q needs positive issue width, window, and LSQ", sc.Name, cs.Core.Name)
		}
	}
	if err := sc.validateTiles(); err != nil {
		return err
	}
	for _, cc := range []*CacheConfig{&sc.Mem.L1, sc.Mem.L2, sc.Mem.LLC} {
		if cc == nil {
			continue
		}
		if cc.SizeKB <= 0 || cc.LineBytes <= 0 || cc.Assoc <= 0 {
			return fmt.Errorf("config %q: cache %q needs positive size, line, assoc", sc.Name, cc.Name)
		}
		lines := cc.SizeKB * 1024 / cc.LineBytes
		if lines%cc.Assoc != 0 {
			return fmt.Errorf("config %q: cache %q sets are not integral (%d lines / %d ways)", sc.Name, cc.Name, lines, cc.Assoc)
		}
	}
	if sc.Mem.DRAM.Model == "" {
		return fmt.Errorf("config %q: DRAM model unset", sc.Name)
	}
	return sc.validateNoC()
}

// validateTiles checks the declarative tile list: counts, roles, clocks,
// explicit core configs, the DAE pairing constraint, and mesh-slot shape.
func (sc *SystemConfig) validateTiles() error {
	var roles []string
	pinned, unpinned := 0, 0
	for i, td := range sc.Tiles {
		if td.Count < 0 {
			return fmt.Errorf("config %q: tile %d: negative count %d", sc.Name, i, td.Count)
		}
		if td.Kind == "" && td.Core == nil {
			return fmt.Errorf("config %q: tile %d: needs a kind or an explicit core config", sc.Name, i)
		}
		if td.ClockMHz < 0 {
			return fmt.Errorf("config %q: tile %d (%s): negative clock %d MHz", sc.Name, i, td.label(), td.ClockMHz)
		}
		switch td.Role {
		case "", RoleSPMD, RoleAccess, RoleExecute:
		default:
			return fmt.Errorf("config %q: tile %d (%s): unknown role %q (want %s, %s, or %s)",
				sc.Name, i, td.label(), td.Role, RoleSPMD, RoleAccess, RoleExecute)
		}
		if td.Core != nil {
			if td.Core.IssueWidth <= 0 || td.Core.WindowSize <= 0 || td.Core.LSQSize <= 0 {
				return fmt.Errorf("config %q: tile %d (%s): explicit core needs positive issue width, window, and LSQ", sc.Name, i, td.label())
			}
		}
		if td.MeshSlot != nil {
			if td.count() > 1 {
				return fmt.Errorf("config %q: tile %d (%s): mesh_slot requires count 1, got %d", sc.Name, i, td.label(), td.count())
			}
			pinned++
		} else {
			unpinned += td.count()
		}
		for k := 0; k < td.count(); k++ {
			roles = append(roles, td.Role)
		}
	}
	if pinned > 0 && unpinned > 0 {
		return fmt.Errorf("config %q: either every tile pins a mesh_slot or none does (%d pinned, %d not)", sc.Name, pinned, unpinned)
	}
	if pinned > 0 && sc.NoC == nil {
		return fmt.Errorf("config %q: mesh_slot set but no NoC configured", sc.Name)
	}
	return validateRoles(sc.Name, roles)
}

// validateRoles enforces the DAE pairing constraint: once any tile takes an
// access or execute role, the whole topology must be alternating
// access/execute pairs, because the slicer's tile_id()/2 rewriting pairs
// tile 2i with tile 2i+1.
func validateRoles(name string, roles []string) error {
	dae := false
	for _, r := range roles {
		if r == RoleAccess || r == RoleExecute {
			dae = true
			break
		}
	}
	if !dae {
		return nil
	}
	if len(roles)%2 != 0 {
		return fmt.Errorf("config %q: access/execute tiles must form pairs, got %d tiles", name, len(roles))
	}
	for i, r := range roles {
		want := RoleAccess
		if i%2 == 1 {
			want = RoleExecute
		}
		if r != want {
			return fmt.Errorf("config %q: tile %d must have role %q (access/execute tiles alternate, access first), got %q", name, i, want, r)
		}
	}
	return nil
}

// validateNoC rejects mesh geometries that cannot place every tile: before
// this check, an undersized MeshWidth silently computed off-grid coordinates
// in Fabric.transferLatency and charged nonsense hop counts.
func (sc *SystemConfig) validateNoC() error {
	if sc.NoC == nil {
		return nil
	}
	w := sc.NoC.MeshWidth
	if w <= 0 {
		return fmt.Errorf("config %q: NoC mesh width must be positive, got %d", sc.Name, w)
	}
	if sc.NoC.HopCycles < 0 {
		return fmt.Errorf("config %q: NoC hop latency must be non-negative, got %d", sc.Name, sc.NoC.HopCycles)
	}
	n := sc.TileCount()
	if w*w < n {
		return fmt.Errorf("config %q: a %dx%d mesh has %d slots but the system has %d tiles", sc.Name, w, w, w*w, n)
	}
	slots := map[int]bool{}
	for i, td := range sc.Tiles {
		if td.MeshSlot == nil {
			continue
		}
		s := *td.MeshSlot
		if s < 0 || s >= w*w {
			return fmt.Errorf("config %q: tile %d (%s): mesh_slot %d outside the %dx%d mesh", sc.Name, i, td.label(), s, w, w)
		}
		if slots[s] {
			return fmt.Errorf("config %q: mesh_slot %d pinned twice", sc.Name, s)
		}
		slots[s] = true
	}
	return nil
}

// label names a tile def for error messages.
func (td *TileDef) label() string {
	if td.Core != nil && td.Core.Name != "" {
		return td.Core.Name
	}
	if td.Kind != "" {
		return td.Kind
	}
	return "?"
}
