package main

import (
	"mosaicsim/internal/soc"
)

// perLayer lists every per-layer metric a traced run prints, with its unit.
// A workload that does not exercise a layer reports 0 work and 0 busy time
// for it (README.md maps each metric to the workloads that move it).
var perLayer = []struct{ name, unit string }{
	{"cc.busy_s", "s"},
	{"ddg.busy_s", "s"},
	{"interp.busy_s", "s"},
	{"interp.dyn_instrs", "count"},
	{"interp.mips", "MIPS"},
	{"soc.build_s", "s"},
	{"soc.run_s", "s"},
	{"soc.report_s", "s"},
	{"soc.stepped_cycles", "cycles"},
	{"soc.skipped_cycles", "cycles"},
	{"soc.skip_ratio", "ratio"},
	{"soc.ns_per_stepped_cycle", "ns"},
	{"soc.parallel_phases", "count"},
	{"soc.parallel_speedup", "x"},
	{"core.instrs", "count"},
	{"core.ipc", "instr/cycle"},
	{"core.ns_per_instr", "ns"},
	{"core.mao_stalls", "count"},
	{"core.fu_stalls", "count"},
	{"core.window_stalls", "count"},
	{"core.comm_stalls", "count"},
	{"core.mispredicts", "count"},
	{"mem.l1.accesses", "count"},
	{"mem.l1.hit_ratio", "ratio"},
	{"mem.l1.mshr_stalls", "count"},
	{"mem.l2.accesses", "count"},
	{"mem.l2.hit_ratio", "ratio"},
	{"mem.dram.reads", "count"},
	{"mem.dram.throttled", "count"},
	{"accel.calls", "count"},
	{"accel.bytes", "B"},
	{"sim.cache_hit_ratio", "ratio"},
	{"sim.cache_entries", "count"},
	{"replay.hit_ratio", "ratio"},
	{"replay.fallbacks", "count"},
	{"replay.recorded", "count"},
	{"jobs.submit_us_p50", "us"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p99", "ms"},
	{"jobs.service_ms_p50", "ms"},
	{"jobs.service_ms_p99", "ms"},
	{"store.turnaround_ms_p50", "ms"},
	{"store.bytes", "B"},
	{"store.files", "count"},
	{"store.recover_s", "s"},
	{"store.jobs_recovered", "count"},
	{"tracing.overhead_ratio", "ratio"},
}

// setLayers prints every per-layer metric, taking the measured values from
// vals and 0 for the layers the workload does not exercise.
func (r *report) setLayers(vals map[string]float64) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, vals[m.name])
	}
}

// resultLayers reads the core and memory counters of one simulated run.
// The stall and mispredict counts sum over tiles; IPC is system-wide.
func resultLayers(res soc.Result, vals map[string]float64) {
	var mao, fu, win, comm, mis int64
	for _, cs := range res.CoreStats {
		mao += cs.MAOStalls
		fu += cs.FUStalls
		win += cs.WindowStalls
		comm += cs.CommStalls
		mis += cs.Mispredict
	}
	vals["core.instrs"] = float64(res.Instrs)
	vals["core.ipc"] = res.IPC
	vals["core.mao_stalls"] = float64(mao)
	vals["core.fu_stalls"] = float64(fu)
	vals["core.window_stalls"] = float64(win)
	vals["core.comm_stalls"] = float64(comm)
	vals["core.mispredicts"] = float64(mis)
	vals["mem.l1.accesses"] = float64(res.L1.Accesses)
	vals["mem.l1.hit_ratio"] = res.L1.HitRate()
	vals["mem.l1.mshr_stalls"] = float64(res.L1.MSHRStalls)
	vals["mem.l2.accesses"] = float64(res.L2.Accesses)
	vals["mem.l2.hit_ratio"] = res.L2.HitRate()
	vals["mem.dram.reads"] = float64(res.DRAM.Reads)
	vals["mem.dram.throttled"] = float64(res.DRAM.Throttled)
	vals["accel.calls"] = float64(res.AccelCalls)
	vals["accel.bytes"] = float64(res.AccelBytes)
}
