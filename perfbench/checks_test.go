package main

import (
	"math"
	"strings"
	"testing"
)

// goodPeriod is a hand-built valid period: two servers in two cells,
// three live tenants, one departed.
func goodPeriod() *periodView {
	return &periodView{
		period: 7, servers: 2, cells: 2, dirty: []int{1}, replayed: 1,
		arrivals: 1, departures: 1, total: 42,
		cellOf: []int{0, 1},
		live: map[string]placed{
			"a": {server: 0, cpu: 0.5, mem: 0.6},
			"b": {server: 0, cpu: 0.5, mem: 0.4},
			"c": {server: 1, cpu: 1, mem: 1},
		},
		gone: map[string]placed{"d": {server: -1}},
	}
}

func TestCheckPeriodAcceptsAValidPeriod(t *testing.T) {
	if err := checkPeriod(goodPeriod(), edits{arrivals: 1, departures: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPeriodRejectsCorruptReports(t *testing.T) {
	cases := map[string]struct {
		corrupt func(v *periodView)
		want    string
	}{
		"cpu share sum above 1": {func(v *periodView) { v.live["b"] = placed{server: 0, cpu: 0.5 + 2e-9, mem: 0.4} }, "sum"},
		"mem share sum above 1": {func(v *periodView) { v.live["a"] = placed{server: 0, cpu: 0.5, mem: 0.7} }, "sum"},
		"missing tenant":        {func(v *periodView) { v.live["c"] = placed{server: -1} }, "live tenant c"},
		"server out of range":   {func(v *periodView) { v.live["c"] = placed{server: 2, cpu: 1, mem: 1} }, "live tenant c"},
		"zero share":            {func(v *periodView) { v.live["c"] = placed{server: 1, cpu: 0, mem: 1} }, "shares"},
		"departed tenant kept":  {func(v *periodView) { v.gone["d"] = placed{server: 1} }, "departed"},
		"arrivals miscounted":   {func(v *periodView) { v.arrivals = 2 }, "arrivals"},
		"departures miscounted": {func(v *periodView) { v.departures = 0 }, "departures"},
		"cells unaccounted":     {func(v *periodView) { v.replayed = 0 }, "cells"},
		"NaN total cost":        {func(v *periodView) { v.total = math.NaN() }, "total cost"},
		"infinite total cost":   {func(v *periodView) { v.total = math.Inf(1) }, "total cost"},
		"zero total cost":       {func(v *periodView) { v.total = 0 }, "total cost"},
	}
	for name, c := range cases {
		v := goodPeriod()
		c.corrupt(v)
		err := checkPeriod(v, edits{arrivals: 1, departures: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

func TestCheckReplayed(t *testing.T) {
	prev, cur := goodPeriod(), goodPeriod()
	cur.period++
	// Cell 1 recomputed, so c may change; cell 0 replayed, so a and b
	// must not.
	cur.live["c"] = placed{server: 1, cpu: 0.9, mem: 0.9}
	if err := checkReplayed(prev, cur); err != nil {
		t.Fatal(err)
	}
	cur.live["a"] = placed{server: 0, cpu: 0.45, mem: 0.6}
	if err := checkReplayed(prev, cur); err == nil || !strings.Contains(err.Error(), "tenant a") {
		t.Fatalf("replayed cell changed: got %v", err)
	}
}

func TestSameOutcome(t *testing.T) {
	a, b := goodPeriod(), goodPeriod()
	if err := sameOutcome(a, b); err != nil {
		t.Fatal(err)
	}
	b.total = math.Nextafter(42, 43)
	if sameOutcome(a, b) == nil {
		t.Fatal("one-ULP total cost difference not caught")
	}
	b = goodPeriod()
	delete(b.live, "b")
	if sameOutcome(a, b) == nil {
		t.Fatal("missing tenant not caught")
	}
	b = goodPeriod()
	b.live["b"] = placed{server: 1, cpu: 0.5, mem: 0.4}
	if sameOutcome(a, b) == nil {
		t.Fatal("moved tenant not caught")
	}
}

func goodAdvice() *adviceView {
	return &adviceView{
		delta:  0.05,
		shares: [][2]float64{{0.6, 0.3}, {0.4, 0.7}},
		est:    []float64{10, 20},
		own:    []float64{10, 20},
		equal:  []float64{12, 25},
		gains:  []float64{1, 2},
	}
}

func TestCheckAdvice(t *testing.T) {
	if err := checkAdvice(goodAdvice()); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		corrupt func(v *adviceView)
		want    string
	}{
		"share below the floor":  {func(v *adviceView) { v.shares[0][0] = 0.04 }, "floor"},
		"share sum above 1":      {func(v *adviceView) { v.shares[1][1] = 0.71 }, "sum"},
		"estimate disagrees":     {func(v *adviceView) { v.est[1] = 20.001 }, "own what-if"},
		"worse than equal split": {func(v *adviceView) { v.equal = []float64{10, 19} }, "equal split"},
	}
	for name, c := range cases {
		v := goodAdvice()
		c.corrupt(v)
		if err := checkAdvice(v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
	// A server with a degradation limit may trade cost for the limit.
	v := goodAdvice()
	v.equal = []float64{10, 19}
	v.limited = true
	if err := checkAdvice(v); err != nil {
		t.Fatalf("limited server: %v", err)
	}
	// Last-digit differences from the advisor's rounded memo keys pass.
	v = goodAdvice()
	v.est[1] = math.Nextafter(20, 21)
	if err := checkAdvice(v); err != nil {
		t.Fatalf("one-ULP estimate difference: %v", err)
	}
}

func TestUnsettled(t *testing.T) {
	prev, cur := goodPeriod(), goodPeriod()
	cur.dirty, cur.replayed = nil, 2
	if unsettled(prev, cur) {
		t.Fatal("an unchanged period with no dirty cell counted as unsettled")
	}
	cur.dirty, cur.replayed = []int{1}, 1
	if !unsettled(prev, cur) {
		t.Fatal("a period that recomputed a cell counted as settled")
	}
	cur.dirty, cur.replayed = nil, 2
	cur.total = math.Nextafter(42, 43)
	if !unsettled(prev, cur) {
		t.Fatal("a one-ULP total cost change counted as settled")
	}
}

func TestEstimateMismatches(t *testing.T) {
	v := goodAdvice()
	if n := estimateMismatches(v); n != 0 {
		t.Fatalf("%d mismatches on equal estimates", n)
	}
	v.est[1] = math.Nextafter(20, 21)
	if n := estimateMismatches(v); n != 1 {
		t.Fatalf("one-ULP difference: %d mismatches, want 1", n)
	}
}
