package main

import (
	"fmt"
	"runtime"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects printed figures, taking units from the declarations.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// Declared metrics: every name the benchmark prints, with its unit.
// BENCHMARK.json at the repository root declares the same names (a test
// keeps the two in step).

// endToEnd are printed with --trace 0 by every workload.
var endToEnd = []string{
	"setup_s", "build_s", "call_p50_ms", "call_tail_ms",
	"tenant_calls_per_s", "heap_mb", "est_cost_s", "measured_cost_s",
}

// perLayer are printed with --trace 1 by every workload; a layer a
// workload never enters reads 0.
var perLayer = []string{
	"vdesign.inputs_ms",
	"fleet.self_ms", "fleet.cell_ms", "fleet.dirty_cells", "fleet.replayed_cells", "fleet.migrations",
	"fleet.rebalance_ms", "fleet.rebalance_moves",
	"fleet.snapshot_mb", "fleet.restore_ms", "fleet.resume_period_ms",
	"placement.greedy_ms", "placement.stay_put_ms", "placement.greedy_steps", "placement.cell_fallthroughs",
	"core.advisor_ms", "core.advisor_runs", "core.search_ms", "core.estimator_calls",
	"score.hits", "score.misses", "score.entries", "score.hit_ratio",
	"score.estimate_hits", "score.estimate_misses", "score.estimate_entries", "score.estimate_hit_ratio",
	"dynmgmt.rebuilds", "dynmgmt.refinements", "dynmgmt.convergences",
	"opt.cold_estimate_ms", "pgsim.warm_estimate_us", "db2sim.warm_estimate_us",
	"vmsim.measure_calls", "vmsim.measure_ms", "refine.self_ms",
	"calibrate.ms", "sqlmini.parse_ms",
	"runtime.alloc_mb_per_call", "runtime.allocs_per_call", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.overhead_ms",
	"check.unsettled_share", "check.estimate_mismatch_share",
}

// units maps every declared metric to its unit.
var units = map[string]string{
	"setup_s":            "s",
	"build_s":            "s",
	"call_p50_ms":        "ms",
	"call_tail_ms":       "ms",
	"tenant_calls_per_s": "1/s",
	"heap_mb":            "MB",
	"est_cost_s":         "s",
	"measured_cost_s":    "s",

	"vdesign.inputs_ms":           "ms",
	"fleet.self_ms":               "ms",
	"fleet.cell_ms":               "ms",
	"fleet.dirty_cells":           "count/period",
	"fleet.replayed_cells":        "count/period",
	"fleet.migrations":            "count/period",
	"fleet.rebalance_ms":          "ms",
	"fleet.rebalance_moves":       "count/period",
	"fleet.snapshot_mb":           "MB",
	"fleet.restore_ms":            "ms",
	"fleet.resume_period_ms":      "ms",
	"placement.greedy_ms":         "ms",
	"placement.stay_put_ms":       "ms",
	"placement.greedy_steps":      "count/period",
	"placement.cell_fallthroughs": "count/period",
	"core.advisor_ms":             "ms",
	"core.advisor_runs":           "count/period",
	"core.search_ms":              "ms",
	"core.estimator_calls":        "count/call",
	"score.hits":                  "count/period",
	"score.misses":                "count/period",
	"score.entries":               "count",
	"score.hit_ratio":             "ratio",
	"score.estimate_hits":         "count/period",
	"score.estimate_misses":       "count/period",
	"score.estimate_entries":      "count",
	"score.estimate_hit_ratio":    "ratio",
	"dynmgmt.rebuilds":            "count/period",
	"dynmgmt.refinements":         "count/period",
	"dynmgmt.convergences":        "count/period",
	"opt.cold_estimate_ms":        "ms",
	"pgsim.warm_estimate_us":      "us",
	"db2sim.warm_estimate_us":     "us",
	"vmsim.measure_calls":         "count/call",
	"vmsim.measure_ms":            "ms",
	"refine.self_ms":              "ms",
	"calibrate.ms":                "ms",
	"sqlmini.parse_ms":            "ms",
	"runtime.alloc_mb_per_call":   "MB/call",
	"runtime.allocs_per_call":     "count/call",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms":         "ms",
	"trace.overhead_ms":           "ms",

	"check.unsettled_share":         "ratio",
	"check.estimate_mismatch_share": "ratio",
}

// setRuntime sets the runtime's allocation and GC figures over a timed
// phase of n calls.
func setRuntime(m metrics, before, after *runtime.MemStats, n float64) {
	m.set("runtime.alloc_mb_per_call", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/n)
	m.set("runtime.allocs_per_call", float64(after.Mallocs-before.Mallocs)/n)
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// complete reports whether m holds exactly the named metrics: every
// workload prints every declared metric of its mode, and nothing else.
func (m metrics) complete(names []string) error {
	for _, name := range names {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics printed, %d declared", len(m), len(names))
	}
	return nil
}
