// Command perfbench is the repository's benchmark: it drives the public
// vdesign API (Fleet and Server) with generated TPC-H and TPC-C tenants,
// checks the outputs, and prints every metric by name with its unit.
//
//	go run . --workload fleet-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the
// end-to-end metrics; --trace 1 replays the same inputs with the layer
// instrumentation on and prints the per-layer metrics. --repeat N runs
// the workload N times, each in its own process with seeds seed ..
// seed+N-1, and prints every metric's median and quartiles. See
// README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workloads are the runnable workload names.
var workloads = []string{"fleet-steady", "fleet-churn", "advise"}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// One P: every timed call runs on a single caller at Parallelism 1,
	// and with a second P the garbage collector's idle mark workers
	// would add their CPU time to whichever call overlaps a collection
	// (see README.md, "Why CPU time").
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-steady, fleet-churn or advise")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced replay")
	repeat := fs.Int("repeat", 0, "run the workload this many times and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0 or 1\n", workloads)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}
	res, errs := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	for _, e := range errs {
		fmt.Fprintln(stderr, "check failed:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runWorkload runs one workload once and shapes its result.
func runWorkload(name string, seed int64, dur time.Duration, traced bool) (*result, []string) {
	switch name {
	case "advise":
		return adviseResult(seed, dur, traced)
	default:
		return fleetResult(seed, name == "fleet-churn", dur, traced)
	}
}

// setupMedians returns the medians over the set-ups of their total
// time (s), calibration time (ms) and SQL parse time (ms).
func setupMedians(st []setupTimes) (total, cal, parse float64) {
	var t, c, p []float64
	for _, s := range st {
		t = append(t, secs(s.cpu))
		c = append(c, ms(s.calibrate))
		p = append(p, ms(s.parse))
	}
	return median(t), median(c), median(p)
}

func fleetResult(seed int64, churn bool, dur time.Duration, traced bool) (*result, []string) {
	p := runFleet(seed, churn, false, dur, 0)
	res := &result{Attempted: p.attempted, Failed: p.failed, Metrics: metrics{}}
	errs := p.errs
	if len(p.timed) == 0 {
		res.Correct = false
		return res, append(errs, "no timed period ran")
	}
	m := metrics(res.Metrics)
	setup, calMS, parseMS := setupMedians(p.setup)
	var timed time.Duration
	for _, d := range p.timedCPU {
		timed += d
	}
	pct := tailPct(churn)
	tailMS := quantile(msAll(p.timedCPU), pct/100)
	if !churn {
		fmt.Fprintf(os.Stderr, "perfbench: strict steady check: %d of %d timed periods recomputed cells or changed their outcome\n", p.unsettled, len(p.timed))
	}
	if !traced {
		m.set("setup_s", setup)
		m.set("build_s", median(secsAll(p.builds)))
		m.set("call_p50_ms", median(msAll(p.timedCPU)))
		m.set("call_tail_ms", tailMS)
		m.set("tenant_calls_per_s", p.tenantPeriods/secs(timed))
		m.set("heap_mb", p.heapMB)
		m.set("est_cost_s", p.estCost)
		m.set("measured_cost_s", p.measuredCost)
		fmt.Fprintf(os.Stderr, "perfbench: %d timed periods (call_tail_ms is p%g), %d settle periods, %.2f dirty cells per timed period\n",
			len(p.timed), pct, p.settlePeriods, float64(p.dirtyCells)/float64(len(p.timed)))
		return finish(res, endToEnd, errs)
	}

	t := runFleet(seed, churn, true, 0, len(p.timed))
	errs = merge(res, errs, &t.tally)
	if !equalDigests(p.digests, t.digests) {
		errs = append(errs, "traced replay reports differ from the untraced run")
	}
	if len(t.timed) != len(p.timed) || t.layers == nil {
		res.Correct = false
		return res, append(errs, "traced replay did not complete")
	}
	n := float64(len(t.timed))
	lt := t.layers
	sp := lt.spans
	perMS := func(d time.Duration) float64 { return ms(d) / n }
	zeroLayers(m)
	m.set("vdesign.inputs_ms", perMS(lt.inputs))
	m.set("fleet.self_ms", perMS(sp.self["period"]))
	m.set("fleet.cell_ms", perMS(sp.total["cell"]))
	m.set("fleet.dirty_cells", float64(lt.dirty)/n)
	m.set("fleet.replayed_cells", float64(lt.replayed)/n)
	m.set("fleet.migrations", float64(lt.migr)/n)
	m.set("fleet.rebalance_ms", perMS(sp.total["rebalance"]))
	m.set("fleet.rebalance_moves", float64(lt.rebal)/n)
	m.set("fleet.snapshot_mb", t.snapshotMB)
	if !churn {
		m.set("fleet.restore_ms", median(msAll(t.restore)))
		m.set("fleet.resume_period_ms", median(msAll(t.resume)))
	}
	m.set("placement.greedy_ms", perMS(sp.self["greedy"]))
	m.set("placement.stay_put_ms", perMS(sp.self["stay-put"]))
	c := lt.ctr
	m.set("placement.greedy_steps", c["vdesign_placement_greedy_steps_total"]/n)
	m.set("placement.cell_fallthroughs", c["vdesign_placement_cell_fallthroughs_total"]/n)
	m.set("core.advisor_ms", perMS(sp.self["advisor"]))
	m.set("core.advisor_runs", c["vdesign_score_advisor_runs_total"]/n)
	hits, misses := c["vdesign_score_cache_hits_total"], c["vdesign_score_cache_misses_total"]
	ehits, emisses := c["vdesign_estimate_cache_hits_total"], c["vdesign_estimate_cache_misses_total"]
	m.set("score.hits", hits/n)
	m.set("score.misses", misses/n)
	m.set("score.entries", float64(t.cachesAtTheEnd[0]))
	m.set("score.hit_ratio", ratio(hits, misses))
	m.set("score.estimate_hits", ehits/n)
	m.set("score.estimate_misses", emisses/n)
	m.set("score.estimate_entries", float64(t.cachesAtTheEnd[1]))
	m.set("score.estimate_hit_ratio", ratio(ehits, emisses))
	m.set("dynmgmt.rebuilds", c["vdesign_dynmgmt_rebuilds_total"]/n)
	m.set("dynmgmt.refinements", c["vdesign_dynmgmt_refinements_total"]/n)
	m.set("dynmgmt.convergences", c["vdesign_dynmgmt_convergences_total"]/n)
	m.set("calibrate.ms", calMS)
	m.set("sqlmini.parse_ms", parseMS)
	setRuntime(m, &t.mem0, &t.mem1, n)
	m.set("trace.overhead_ms", median(msAll(t.timedCPU))-median(msAll(p.timedCPU)))
	if !churn {
		m.set("check.unsettled_share", float64(p.unsettled)/float64(len(p.timed)))
	}
	return finish(res, perLayer, errs)
}

func adviseResult(seed int64, dur time.Duration, traced bool) (*result, []string) {
	in, err := newAdviseInputs(seed, newFitter())
	if err != nil {
		return &result{Metrics: metrics{}}, []string{"deal inputs: " + err.Error()}
	}
	p := runAdvise(in, dur)
	res := &result{Attempted: p.attempted, Failed: p.failed, Metrics: metrics{}}
	errs := p.errs
	if len(p.recommend) < minAdvised {
		res.Correct = false
		return res, append(errs, "the timed phase ended before enough servers were advised for the tail")
	}
	m := metrics(res.Metrics)
	setup, calMS, parseMS := setupMedians(p.setup)
	var rounds []float64
	var sum float64
	for i := range p.refined {
		r := secs(p.recommend[i] + p.refined[i])
		rounds = append(rounds, r)
		sum += r
	}
	pct := float64(adviseTailPct)
	tailMS := quantile(msAll(p.recommend), pct/100)
	fmt.Fprintf(os.Stderr, "perfbench: strict estimate check: %d of %d EstimatedSeconds differ from the own estimate\n", p.estMismatches, p.estimates)
	if !traced {
		m.set("setup_s", setup)
		m.set("build_s", median(rounds))
		m.set("call_p50_ms", median(msAll(p.recommend)))
		m.set("call_tail_ms", tailMS)
		m.set("tenant_calls_per_s", p.tenants/sum)
		m.set("heap_mb", p.heapMB)
		m.set("est_cost_s", p.estCost)
		m.set("measured_cost_s", p.measuredCost)
		fmt.Fprintf(os.Stderr, "perfbench: %d servers advised (call_tail_ms is p%g)\n", len(p.recommend), pct)
		return finish(res, endToEnd, errs)
	}

	t := traceAdvise(in, len(p.recommend))
	errs = merge(res, errs, &t.tally)
	if !equalDigests(p.recDigests, t.recDigests) || !equalDigests(p.refDigests, t.refDigests) {
		errs = append(errs, "traced core.Recommend/refine.Run allocations differ from Server.Recommend/Refined")
	}
	if len(t.recommend) != len(p.recommend) {
		res.Correct = false
		return res, append(errs, "traced replay did not complete")
	}
	n := float64(len(t.recommend))
	lt := t.layers
	zeroLayers(m)
	m.set("core.search_ms", median(lt.search))
	m.set("core.estimator_calls", lt.calls/n)
	m.set("opt.cold_estimate_ms", median(lt.cold))
	m.set("pgsim.warm_estimate_us", median(lt.warmPG))
	m.set("db2sim.warm_estimate_us", median(lt.warmDB2))
	m.set("vmsim.measure_calls", lt.measureCalls/n)
	m.set("vmsim.measure_ms", median(lt.measure))
	m.set("refine.self_ms", median(lt.refineSelf))
	m.set("calibrate.ms", calMS)
	m.set("sqlmini.parse_ms", parseMS)
	setRuntime(m, &t.mem0, &t.mem1, n)
	m.set("trace.overhead_ms", median(msAll(t.recommend))-median(msAll(p.recommend)))
	m.set("check.estimate_mismatch_share", float64(p.estMismatches)/float64(p.estimates))
	return finish(res, perLayer, errs)
}

// zeroLayers sets every per-layer metric to 0, so a layer the workload
// never enters reads 0.
func zeroLayers(m metrics) {
	for _, name := range perLayer {
		m.set(name, 0)
	}
}

// merge adds a traced pass's operations and failed checks to the
// result of the untraced one.
func merge(res *result, errs []string, t *tally) []string {
	res.Attempted += t.attempted
	res.Failed += t.failed
	return append(errs, t.errs...)
}

// finish checks that the run printed exactly the declared metrics of
// its mode and sets correct.
func finish(res *result, names []string, errs []string) (*result, []string) {
	if err := metrics(res.Metrics).complete(names); err != nil {
		errs = append(errs, err.Error())
	}
	res.Correct = len(errs) == 0
	return res, errs
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repeatRuns runs the workload n times, each in a fresh process, and
// prints each metric's median and quartiles (Python's
// statistics.quantiles(values, n=4)) with the interquartile range as a
// share of the median.
func repeatRuns(name string, seed int64, seconds, trace, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(stderr, "perfbench: run with seed %d failed its checks\n", s)
			return 1
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Fprintf(stdout, "seed %d: %s\n", s, lastLine(out))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-28s %14s %14s %14s %8s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "iqr/med", name, n)
	for _, k := range names {
		q1, q2, q3, err := quartiles(values[k])
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %14.6g %8.4f  %s\n", k, q1, q2, q3, (q3-q1)/q2, units[k])
	}
	return 0
}

func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && (out[end-1] == '\n' || out[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m, ld := len(s)+1, len(s)
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}
