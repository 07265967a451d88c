package main

import (
	"fmt"
	"math"
	"sort"
)

// shareTol is the slack allowed on a server's share sums.
const shareTol = 1e-9

// estTol is the relative slack checkAdvice allows between a
// recommendation's EstimatedSeconds and the benchmark's own estimate at
// the recommended shares. The advisor memoizes estimates under
// allocations rounded to 1e-6, so a reported cost may come from an
// allocation a few ULPs away from the one reported; that moves the cost
// in its last digits only. Exact mismatches are still counted and
// printed (estimateMismatches).
const estTol = 1e-12

// placed is one tenant's placement in a fleet period, read back through
// the public report.
type placed struct {
	server   int
	cpu, mem float64
}

// periodView is what the checks see of one fleet period: the report's
// public fields, plus the tenant set the benchmark expects.
type periodView struct {
	period     int
	servers    int
	cells      int
	dirty      []int
	replayed   int
	arrivals   int
	departures int
	migrations int
	rebalanced int
	total      float64
	cellOf     []int // per server, its placement cell
	// live maps every tenant the benchmark believes is live to its
	// placement; gone lists the tenants it removed, with their placement
	// in the report (server -1 when absent, as it must be).
	live map[string]placed
	gone map[string]placed
}

// tally counts a pass's operations and collects its failed checks. An
// operation is one call into the program that can fail.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// op counts one operation and records its error.
func (t *tally) op(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.fail("%s: %v", what, err)
		return false
	}
	return true
}

// edits is what the benchmark changed before a period.
type edits struct {
	arrivals, departures int
}

// checkPeriod tests the properties every fleet period must have.
func checkPeriod(v *periodView, want edits) error {
	if v.arrivals != want.arrivals || v.departures != want.departures {
		return fmt.Errorf("period %d: %d arrivals, %d departures; the benchmark made %d and %d",
			v.period, v.arrivals, v.departures, want.arrivals, want.departures)
	}
	if got := len(v.dirty) + v.replayed; got != v.cells {
		return fmt.Errorf("period %d: %d dirty + %d replayed cells, fleet has %d", v.period, len(v.dirty), v.replayed, v.cells)
	}
	if math.IsNaN(v.total) || math.IsInf(v.total, 0) || v.total <= 0 {
		return fmt.Errorf("period %d: total cost %v", v.period, v.total)
	}
	for id, p := range v.gone {
		if p.server != -1 {
			return fmt.Errorf("period %d: departed tenant %s is on server %d", v.period, id, p.server)
		}
	}
	cpu := make([]float64, v.servers)
	mem := make([]float64, v.servers)
	for _, id := range sortedKeys(v.live) {
		p := v.live[id]
		if p.server < 0 || p.server >= v.servers {
			return fmt.Errorf("period %d: live tenant %s on server %d of %d", v.period, id, p.server, v.servers)
		}
		if !(p.cpu > 0) || !(p.mem > 0) {
			return fmt.Errorf("period %d: tenant %s has shares (%v, %v)", v.period, id, p.cpu, p.mem)
		}
		cpu[p.server] += p.cpu
		mem[p.server] += p.mem
	}
	for s := range cpu {
		if cpu[s] > 1+shareTol || mem[s] > 1+shareTol {
			return fmt.Errorf("period %d: server %d shares sum to (%v, %v)", v.period, s, cpu[s], mem[s])
		}
	}
	return nil
}

// sameOutcome reports where two periods' results differ: every live
// tenant's server and shares, and the total cost, compared exactly.
func sameOutcome(a, b *periodView) error {
	if a.total != b.total {
		return fmt.Errorf("total cost %v vs %v", a.total, b.total)
	}
	if len(a.live) != len(b.live) {
		return fmt.Errorf("%d vs %d live tenants", len(a.live), len(b.live))
	}
	for _, id := range sortedKeys(a.live) {
		pb, ok := b.live[id]
		if !ok {
			return fmt.Errorf("tenant %s missing", id)
		}
		if pa := a.live[id]; pa != pb {
			return fmt.Errorf("tenant %s: %+v vs %+v", id, pa, pb)
		}
	}
	return nil
}

// unsettled reports whether an unchanged period fails the strict steady
// check: it recomputes no cell and repeats the previous period's
// assignment, shares and total cost exactly. A settled fleet passes it;
// the managers that never converge (README.md, "Fleets that never
// settle") make fleet-steady fail it in every timed period today. The
// benchmark counts the failures and prints them rather than failing
// the run on them, since checkReplayed already holds every replayed
// cell to its stored outcome.
func unsettled(prev, cur *periodView) bool {
	return len(cur.dirty) > 0 || sameOutcome(prev, cur) != nil
}

// checkReplayed tests a period against its predecessor: a cell that
// replayed its stored outcome must reproduce it, so every tenant the
// previous period placed in a now-replayed cell keeps its server and
// shares exactly.
func checkReplayed(prev, cur *periodView) error {
	dirty := make(map[int]bool, len(cur.dirty))
	for _, c := range cur.dirty {
		dirty[c] = true
	}
	for _, id := range sortedKeys(prev.live) {
		pp := prev.live[id]
		if dirty[prev.cellOf[pp.server]] {
			continue
		}
		cp, ok := cur.live[id]
		if !ok {
			continue // departed this period, which dirties its cell
		}
		if cp != pp {
			return fmt.Errorf("period %d: tenant %s in replayed cell %d moved from %+v to %+v",
				cur.period, id, prev.cellOf[pp.server], pp, cp)
		}
	}
	return nil
}

// adviceView is what the checks see of one server's recommendation.
type adviceView struct {
	delta  float64      // the greedy step, which is also the share floor
	shares [][2]float64 // per tenant (cpu, mem)
	est    []float64    // per tenant EstimatedSeconds
	// own is the benchmark's own what-if estimate of each tenant at its
	// recommended shares, equal is the same at the 1/N split.
	own, equal []float64
	gains      []float64
	limited    bool // some tenant has a degradation limit
}

// checkAdvice tests one recommendation.
func checkAdvice(v *adviceView) error {
	var cpu, mem float64
	for i, s := range v.shares {
		if s[0] < v.delta-shareTol || s[1] < v.delta-shareTol {
			return fmt.Errorf("tenant %d shares (%v, %v) below the %v floor", i, s[0], s[1], v.delta)
		}
		cpu += s[0]
		mem += s[1]
	}
	if cpu > 1+shareTol || mem > 1+shareTol {
		return fmt.Errorf("shares sum to (%v, %v)", cpu, mem)
	}
	var got, equal float64
	for i := range v.est {
		if math.Abs(v.est[i]-v.own[i]) > estTol*math.Abs(v.own[i]) {
			return fmt.Errorf("tenant %d: EstimatedSeconds %v, own what-if estimate %v", i, v.est[i], v.own[i])
		}
		got += v.gains[i] * v.est[i]
		equal += v.gains[i] * v.equal[i]
	}
	if !v.limited && got > equal {
		return fmt.Errorf("gain-weighted cost %v exceeds the equal split's %v", got, equal)
	}
	return nil
}

// estimateMismatches counts the tenants whose EstimatedSeconds is not
// bit-equal to the benchmark's own estimate: the strict form of the
// estimate check.
func estimateMismatches(v *adviceView) int {
	n := 0
	for i := range v.est {
		if v.est[i] != v.own[i] {
			n++
		}
	}
	return n
}

func sortedKeys(m map[string]placed) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
